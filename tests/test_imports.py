"""No package module imports a name it never references.

``__init__.py`` is left out: its imports are the public exports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parents[1] / "src" / "igaspectra"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    # an attribute chain such as np.linalg.eigh starts at the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_check_sees_dead_names():
    source = "import os, sys\nfrom a.b import c, d as e\nsys.exit(e)\n"
    assert _unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports(module.read_text()) == []
