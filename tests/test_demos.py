"""Demos: every mvlab name a demo imports or reads exists.

The demos are parsed, not run, so the check is cheap and still catches a
demo left behind by a removed or renamed function.
"""

import ast
import importlib
import inspect
import textwrap
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


def instance_attributes(cls):
    """Attributes an instance of cls has: those of the class, its dataclass
    fields and what the methods of cls and its bases assign on self."""
    names = set(dir(cls)) | set(getattr(cls, "__dataclass_fields__", ()))
    for klass in cls.__mro__[:-1]:
        tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Store)
                  and isinstance(n.value, ast.Name) and n.value.id == "self"}
    return names


def missing_names(tree):
    """Names the demo imports from mvlab, or reads from what it imported
    (``mvp.jhat_quantity``, ``FlowGeometry.euclidean``) or from an instance
    of an imported class (``kern = SubHeatKernel(...)``, then ``kern.at``),
    that do not exist."""
    bound, instances, missing = {}, {}, []
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
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Name) \
                and inspect.isclass(bound.get(node.value.func.id)):
            attrs = instance_attributes(bound[node.value.func.id])
            instances.update((t.id, attrs) for t in node.targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
            continue
        name = node.value.id
        if name in instances and node.attr not in instances[name] or \
                name in bound and not hasattr(bound[name], node.attr):
            missing.append(f"{name}.{node.attr}")
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
                     "from mvlab.kernels import SubHeatKernel\n"
                     "mvp.heat_j_quantity(None, None, 1.0)\n"
                     "mvp.jhat_quantity\n"
                     "kern = SubHeatKernel(None)\n"
                     "kern.liyau(0.8, 0.2)\n"
                     "kern.at, kern.geom, kern.n\n")
    missing, _ = missing_names(tree)
    assert missing == ["mvlab.unit_ball_volume", "mvp.heat_j_quantity", "kern.liyau"]
