"""No float may reach a decision path: the deciding modules hold no float literal
and call no float-valued function."""

import ast
import importlib
import inspect

import pytest

DECIDING_MODULES = ("cremona", "curve", "classes", "weights", "ech", "checks")
FLOAT_CALLS = {"float", "sqrt", "exp", "log", "pow", "fsum"}


def float_uses(source: str) -> list[str]:
    """Each float literal and each call of a FLOAT_CALLS name, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FLOAT_CALLS:
                found.append(f"line {node.lineno}: call of {name}")
    return found


@pytest.mark.parametrize("module", DECIDING_MODULES)
def test_deciding_module_uses_no_float(module):
    source = inspect.getsource(importlib.import_module(f"sympstairs.{module}"))
    assert float_uses(source) == []


def test_guard_sees_each_float_form():
    source = "x = 0.5\ny = float(x)\nz = math.sqrt(2)\nw = pow(2, -1)\nv = math.isqrt(9)\n"
    assert float_uses(source) == [
        "line 1: literal 0.5", "line 2: call of float", "line 3: call of sqrt", "line 4: call of pow",
    ]
