"""Every name a fairtile module exports exists, and the package itself
uses it."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import fairtile

MODULES = sorted(m.name for m in pkgutil.iter_modules(fairtile.__path__, "fairtile."))

# exported for the paper claims they pin (the critical tiling and the two
# Jacobian determinants), not for any caller inside the package
PAPER_ANCHORS = {"critical_tiling", "reconstruct_triangle",
                 "fair_split_jacobian_det", "reconstruction_jacobian_det"}

# the per-tile object layer that the array record replaced
RETIRED = {"Point", "TileId", "Triangle", "Quadrangle", "edge_vectors", "is_convex",
           "tile_label", "quad_vertices", "_apex"}


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
                    if name not in referenced and name not in PAPER_ANCHORS)
    assert not unused, f"exported but never used inside fairtile: {unused}"


def test_the_per_tile_object_layer_stays_retired():
    """``geometry`` defines no class but the record and its per-tile view, and
    no module defines or exports a retired name, so no path (the strip,
    plane and quadify runs among them) can build a per-tile object."""
    geometry = importlib.import_module("fairtile.geometry")
    classes = {name for name, value in vars(geometry).items()
               if inspect.isclass(value) and value.__module__ == geometry.__name__}
    assert classes == {"Tiles", "Tile"}
    assert not hasattr(geometry.Tiles, "of")
    for name in ["fairtile", *MODULES]:
        assert not RETIRED & set(vars(importlib.import_module(name))), name
