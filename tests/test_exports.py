"""Every name a fairtile module exports exists, and the package itself
uses it."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import fairtile

MODULES = sorted(m.name for m in pkgutil.iter_modules(fairtile.__path__, "fairtile."))

# names that left the package for tests/oracles.py: the per-tile object
# layer that the array record replaced, the paper-only reconstruction,
# Jacobian anchors and critical tiling that no run reaches, and the
# central-difference Jacobian that the analytic one replaced
RETIRED = {"Point", "TileId", "Triangle", "Quadrangle", "edge_vectors", "is_convex",
           "tile_label", "quad_vertices", "_apex",
           "reconstruct_triangle", "_reconstruction_residual", "_posed_tuple",
           "ReconstructionTriple", "OutOfBasin", "_BASIN_RADIUS", "_ANGLE_TIE_TOL",
           "fair_split_jacobian_det", "reconstruction_jacobian_det", "critical_tiling",
           "_fd_jacobian", "_FD_STEP"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _exports_and_references(src: Path):
    """Names in each module's ``__all__``, and every name the package
    refers to as a ``Name``, an ``Attribute`` or an import, ``__init__.py``
    excluded."""
    exported, referenced = {}, set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "__all__"):
                exported[path.stem] = ast.literal_eval(node.value)
    return exported, referenced


def test_every_export_has_a_caller_in_the_package():
    exported, referenced = _exports_and_references(Path(fairtile.__file__).parent)
    assert exported, "no module declares __all__"
    unused = sorted(f"{mod}.{name}" for mod, names in exported.items() for name in names
                    if name not in referenced)
    assert not unused, f"exported but never used inside fairtile: {unused}"


def test_the_per_tile_object_layer_stays_retired():
    """``geometry`` defines no class but the record and its per-tile view, no
    module defines, imports or exports a retired name, and ``FAIR`` holds no
    reconstruction constant, so no path (the strip, plane and quadify runs
    among them) can build a per-tile object or reach the paper-only code."""
    geometry = importlib.import_module("fairtile.geometry")
    classes = {name for name, value in vars(geometry).items()
               if inspect.isclass(value) and value.__module__ == geometry.__name__}
    assert classes == {"Tiles", "Tile"}
    assert not hasattr(geometry.Tiles, "of")
    for name in ["fairtile", *MODULES]:
        assert not RETIRED & set(vars(importlib.import_module(name))), name
    assert not RETIRED & _exports_and_references(Path(fairtile.__file__).parent)[1]
    fields = {f.name for f in dataclasses.fields(fairtile.FAIR)}
    assert fields == {"p0", "alpha0", "beta0", "gamma0", "xi0", "eta0"}


# Every module ``import fairtile`` loads, outside the package itself.  Each
# new one adds its own import to the benchmark's ``setup_s``, a fresh-process
# import of the package; a module a rare path needs is imported in that path.
IMPORT_ALLOW = {"__future__", "argparse", "dataclasses", "functools", "json", "math", "numpy",
                "random", "re", "sys", "typing"}


def _import_time_imports(node):
    """Absolute module names the statements under ``node`` import when the
    module runs, function bodies (which run only when called) left out."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and not child.level:
            yield child.module
        else:
            yield from _import_time_imports(child)


def test_modules_import_only_the_allowed_modules_at_load():
    src = Path(fairtile.__file__).parent
    found = {(path.name, name) for path in sorted(src.glob("*.py"))
             for name in _import_time_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert found, "no module-level import found; the scan is broken"
    extra = sorted(f"{file}: import {name}" for file, name in found
                   if name.split(".")[0] not in IMPORT_ALLOW)
    assert not extra, f"module-level imports outside the allow-list: {extra}"
    assert {name.split(".")[0] for _, name in found} == IMPORT_ALLOW  # no stale entry
