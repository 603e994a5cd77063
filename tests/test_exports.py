"""Every name a kernelval module exports resolves, every name the benchmark's
tracer wraps resolves, and the private names modules take from each other are
the listed ones."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kernelval

MODULES = ["kernelval"] + [f"kernelval.{m.name}"
                           for m in pkgutil.iter_modules(kernelval.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _traced_targets():
    """``TARGETS`` of ``perfbench/tracing.py``, read from its source."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


TRACED = _traced_targets()


@pytest.mark.parametrize("span", sorted(TRACED))
def test_traced_names_resolve(span):
    # module, then attribute, then the method of a "Class.method" attribute
    module, attr = TRACED[span]
    obj = importlib.import_module(module)
    for name in attr.split("."):
        obj = getattr(obj, name)
    assert callable(obj)


# Private names one kernelval module takes from another, as (user, owner,
# name).  Entries may only go: a use that is no longer there is deleted here,
# and a new one is a reason to make the name public or to move the code.
CROSS_MODULE_PRIVATE = {
    ("diagnostics", "krr", "_check_fit_inputs"),
    ("diagnostics", "krr", "_primal_system"),
    ("diagnostics", "krr", "_solve_spd"),
    ("diagnostics", "krr", "_unsorted_system"),
    ("diagnostics", "market", "_normal_rule"),
    ("sampling", "kernels", "_check_spec"),
    ("valuation", "kernels", "_by_row_blocks"),
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _owner(node):
    """The kernelval module an ``ImportFrom`` reads from, or None."""
    if node.level == 1:
        return node.module or "kernelval"
    if node.level == 0 and (node.module or "").split(".")[0] == "kernelval":
        return node.module.split(".")[-1]
    return None


def _cross_module_private_uses(path):
    """``from .owner import _name`` and ``owner._name`` in one source file."""
    user = path.stem
    tree = ast.parse(path.read_text())
    modules, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _owner(node) is not None:
            owner = _owner(node)
            for alias in node.names:
                if owner == "kernelval":  # from . import module
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    uses.add((user, owner, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            uses.add((user, modules[node.value.id], node.attr))
    return uses


def test_cross_module_private_names_are_the_listed_ones():
    src = Path(kernelval.__file__).parent
    found = set().union(*(_cross_module_private_uses(p)
                          for p in sorted(src.glob("*.py"))))
    assert found == CROSS_MODULE_PRIVATE
