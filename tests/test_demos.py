"""Demos: every mvlab name a demo imports or reads exists.

The demos are parsed, not run, so the check is cheap and still catches a
demo left behind by a removed or renamed function.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def resolve(module, name):
    """The object ``from module import name`` binds, or None."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def missing_names(tree):
    """Names the demo imports from mvlab, or reads from what it imported
    (``mvp.jhat_quantity``, ``FlowGeometry.euclidean``), that do not exist."""
    bound, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "mvlab":
            for a in node.names:
                obj = resolve(node.module, a.name)
                if obj is None:
                    missing.append(f"{node.module}.{a.name}")
                else:
                    bound[a.asname or a.name] = obj
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound \
                and not hasattr(bound[node.value.id], node.attr):
            missing.append(f"{node.value.id}.{node.attr}")
    return missing, bound


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_names_exist(demo):
    missing, bound = missing_names(ast.parse(demo.read_text(encoding="utf-8")))
    assert bound, f"{demo.name} imports nothing from mvlab"
    assert not missing, f"{demo.name} uses names mvlab lacks: {missing}"


def test_missing_name_is_reported():
    tree = ast.parse("from mvlab import mv_parabolic as mvp\n"
                     "from mvlab import unit_ball_volume\n"
                     "mvp.heat_j_quantity(None, None, 1.0)\n"
                     "mvp.jhat_quantity\n")
    missing, _ = missing_names(tree)
    assert missing == ["mvlab.unit_ball_volume", "mvp.heat_j_quantity"]
