"""The discrete path is float-free, so its verdicts are decisions.

An AST scan finds no true division, no `float` and no float literal in any
function of the kernel modules. In `cli` they occur only where a float is
the product: the CSV VaR table and its rounding, the elliptical model and
the kind draw of `simulate`.
"""

import ast
from pathlib import Path

import pytest

import varlab

FLOAT_SITES = {
    "distributions": set(),
    "subadditivity": set(),
    "comonotonicity": set(),
    "risk": set(),
    "cli": {"_var_table_csv", "_round12", "cmd_elliptic", "cmd_simulate"},
}


def _is_float(node: ast.AST) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    if isinstance(node, ast.Name):
        return node.id == "float"
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@pytest.mark.parametrize("module", sorted(FLOAT_SITES))
def test_floats_only_where_allowed(module):
    path = Path(varlab.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    sites = set()
    for top in tree.body:
        # a method counts under its own name, other statements at module level
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            if any(map(_is_float, ast.walk(node))):
                sites.add(getattr(node, "name", "module level"))
    assert sites <= FLOAT_SITES[module]
