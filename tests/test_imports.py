"""No package module imports a name it never references, no
module-level private name goes unreferenced by the whole package, and
the package exports a fixed set of names, each once.

``__init__.py`` is left out of the import check: its imports are the
public exports.
"""

import ast
import pathlib

import pytest

import igaspectra

SRC = pathlib.Path(__file__).parents[1] / "src" / "igaspectra"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


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


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:_name`` for each module-level private definition that no
    module references, by name, attribute or ``from`` import."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(f"{module}:{name}" for module, name in defined if name not in used)


def test_dead_private_name_check_sees_leftovers():
    sources = {"a.py": "_LIMIT = 3\n__all__ = []\ndef _unused_helper(t): return _LIMIT\n"
                       "class _Parser: pass\n",
               "b.py": "from .a import _Parser\n"}
    assert _dead_private_names(sources) == ["a.py:_unused_helper"]


def test_no_module_level_private_name_is_dead():
    assert _dead_private_names({p.name: p.read_text() for p in PACKAGE}) == []


# the input guards errors.check_int and errors.check_memory are not exported
EXPORTS = {
    "KnotVector", "eval_basis", "boundary_derivatives",
    "gauss_legendre", "gauss_lobatto", "optimal_blending", "map_to_element",
    "SymBandMatrix", "assemble_1d", "assemble_1d_reference_gauss",
    "spectral_sum", "Spectrum", "solve_generalized",
    "ExactSpectrum", "ErrorReport", "FunctionErrors", "ConditionReport",
    "OutlierMetric", "eigenvalue_errors", "eigenfunction_errors",
    "convergence_rates", "condition_report", "outlier_metric",
    "build_1d", "solve_1d", "solve_nd", "spectrum_rows", "convergence_table",
    "condition_summary",
    "ConfigurationError", "NumericError", "DefinitenessError", "ResourceError",
    "__version__",
}


def test_package_exports_each_public_name_once():
    names = igaspectra.__all__
    assert len(names) == len(set(names))
    assert set(names) == EXPORTS
    assert [name for name in names if not hasattr(igaspectra, name)] == []
