"""Every name a library module imports at module level is used in that module.

No linter ships with the project, so this stands in for two checks of
one: an import left behind when the code that needed it goes fails
here, and so does an export in ``ssnnls.__all__`` that no longer
resolves.  ``__init__.py`` is exempt from the first, since its imports
are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import ssnnls

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ssnnls"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"; "import a.b as c" and "from a import b as c" bind "c"
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport scipy.linalg\nfrom typing import List as L, Dict\nx: L = scipy\n"
    assert _unused_imports(source) == [(1, "os"), (3, "Dict")]
    assert len(MODULES) > 5  # the glob found the package


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_every_exported_name_resolves():
    assert ssnnls.__all__ and [n for n in ssnnls.__all__ if not hasattr(ssnnls, n)] == []
