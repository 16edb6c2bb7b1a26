"""The modules above the integral rings call no polynomial arithmetic.

`ratmap`, `dynamics`, `projective`, `bounds`, `sunit` and `cli` reach F_p[t]
only through the ring objects of `fields` (and the residue fields), so each
algorithm is written once for Z and F_p[t].  Only the `Coeffs` type alias
may be taken from `fppoly`.  The check reads the source with `ast`, so it
needs nothing to run.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "arithdyn"
ABOVE_THE_RINGS = ["ratmap", "dynamics", "projective", "bounds", "sunit", "cli"]
ALLOWED = {"Coeffs"}


def fppoly_uses(source: str) -> list[str]:
    """Every use of fppoly in `source` other than the Coeffs alias."""
    tree = ast.parse(source)
    allowed_names = set()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "fppoly":
                out += [f"import {a.name}" for a in node.names if a.name not in ALLOWED]
            out += [f"import {a.name}" for a in node.names if a.name == "fppoly"]
        elif isinstance(node, ast.Import):
            out += [f"import {a.name}" for a in node.names if "fppoly" in a.name.split(".")]
        elif isinstance(node, ast.Attribute):
            if node.attr == "fppoly":
                out.append("attribute fppoly")
            elif isinstance(node.value, ast.Name) and node.value.id == "fppoly":
                if node.attr in ALLOWED:
                    allowed_names.add(id(node.value))
                else:
                    out.append(f"fppoly.{node.attr}")
    out += [
        "name fppoly"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "fppoly" and id(node) not in allowed_names
    ]
    return out


@pytest.mark.parametrize("module", ABOVE_THE_RINGS)
def test_module_calls_no_fppoly(module):
    assert fppoly_uses((SRC / f"{module}.py").read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "from . import fppoly",
        "from .fppoly import pmul",
        "from .fppoly import Coeffs, power",
        "from arithdyn.fppoly import pgcd",
        "import arithdyn.fppoly",
        "from . import fields\nx = fields.fppoly.pmul",
        "def f(fppoly):\n    return fppoly.pcode(2, ())",
    ],
)
def test_checker_sees_each_kind_of_use(source):
    assert fppoly_uses(source)


def test_checker_allows_the_alias():
    assert fppoly_uses("from .fppoly import Coeffs\nx: Coeffs = ()\ny = fppoly.Coeffs") == []
