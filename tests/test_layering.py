"""The modules above the integral rings call no polynomial arithmetic.

`ratmap`, `dynamics`, `projective`, `bounds`, `sunit` and `cli` reach F_p[t]
only through the ring objects of `fields` (and the residue fields), so each
algorithm is written once for Z and F_p[t].  Only the `Coeffs` type alias
may be taken from `fppoly`.  F_p[t] values are coefficient tuples: no module
names a wrapper class `FpPoly`.  The parser computes on raw ring values: it
builds no field constants (`zero()`, `one()`, `gen()`) and makes an element
only once, in `parse_element`.  Points stay raw pairs inside: `dynamics`
checks cycles with the pair walk of `ratmap`, not with `apply_map` or
`iterate_map`, and `parsing` builds a point once, without `normalize`.
The escape criterion is `ratmap`'s alone: `dynamics` reads no field of
`EscapeProfile` or `EscapeProof`, so a change to a clause changes one
module.  The kind of a place is `fields`' alone: no other module imports
a `KIND_*` name or reads `.kind` (the parser's tokens have a kind of their
own), and no `Place(...)` takes a kind, only a field and a prime element
or None.  The valuation v_pi(a) is `fppoly.split`'s alone: no module
divides out a prime in a `while a % b == 0` loop.  The CLI prints only
through `_emit` (reports) and `_diagnostic` (errors), and each subcommand
handler `_cmd_*` is named once, where `_build_parser` declares it.  One
loop of Frobenius powers serves irreducibility and factorization over
F_p[t]: the step `ppow_mod(p, frob, p, f)` is taken only in
`fppoly._degree_parts`, and `factor_poly` neither scans the irreducibles
nor calls `is_irreducible`.  The checks read the source (with `ast`), so
they need nothing to run.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "arithdyn"
ABOVE_THE_RINGS = ["ratmap", "dynamics", "projective", "bounds", "sunit", "cli"]
ALLOWED = {"Coeffs"}


def walk_with_function(tree):
    """Each node below `tree` with the name of its innermost enclosing
    function (None at module level); a def node itself is not yielded."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            yield child, function
            yield from visit(child, function)

    yield from visit(tree, None)


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


def test_no_module_names_a_polynomial_wrapper():
    assert [path.name for path in SRC.glob("*.py") if "FpPoly" in path.read_text()] == []


FIELD_CONSTANTS = {"zero", "one", "gen"}


def field_value_calls(source: str) -> list[str]:
    """Calls of .zero(), .one() and .gen(), and of .element() outside
    parse_element, each as 'function: .name()'."""
    out = []
    for node, function in walk_with_function(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in FIELD_CONSTANTS or (attr == "element" and function != "parse_element"):
                out.append(f"{function}: .{attr}()")
    return out


def test_parser_computes_on_ring_values():
    assert field_value_calls((SRC / "parsing.py").read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = field.zero()",
        "def f(field):\n    return field.one()",
        "class A:\n    def const(self):\n        return self.field.gen()",
        "def parse_map(field, s):\n    return field.element(1)",
        "def parse_element(field, s):\n    def g():\n        return field.element(1)\n    return g()",
    ],
)
def test_field_value_checker_sees_each_call(source):
    assert field_value_calls(source)


def test_field_value_checker_allows_ring_values():
    source = "def parse_element(field, s):\n    return field.element(field.ring.one, ring.zero)"
    assert field_value_calls(source) == []


# module -> names it must not import, with one source that breaks the rule
BANNED_IMPORTS = {
    "dynamics": (
        {"apply_map", "iterate_map"},
        "from . import ratmap\nq = ratmap.iterate_map(phi, p, 2)",
    ),
    "parsing": ({"normalize"}, "from .projective import ProjPoint, normalize"),
}


def banned_uses(source: str, banned: set) -> list[str]:
    """The names of `banned` that `source` imports (`from m import name`)
    or reads off a module (`m.name`)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out += [a.name for a in node.names if a.name in banned]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.attr in banned:
                out.append(f"{node.value.id}.{node.attr}")
    return out


@pytest.mark.parametrize("module", sorted(BANNED_IMPORTS))
def test_module_imports_no_banned_name(module):
    banned, _ = BANNED_IMPORTS[module]
    assert banned_uses((SRC / f"{module}.py").read_text(), banned) == []


@pytest.mark.parametrize("module", sorted(BANNED_IMPORTS))
def test_banned_name_checker_sees_the_rule_broken(module):
    banned, source = BANNED_IMPORTS[module]
    assert banned_uses(source, banned)


ESCAPE_CLASSES = ("EscapeProfile", "EscapeProof")


def class_fields(source: str, names) -> set:
    """The annotated fields of the classes `names` defined in `source`."""
    return {
        stmt.target.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name in names
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def field_reads(source: str, fields: set) -> list[str]:
    """Every `obj.name` in `source` with name in `fields`."""
    return [
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in fields
    ]


def escape_fields() -> set:
    return class_fields((SRC / "ratmap.py").read_text(), ESCAPE_CLASSES)


def test_escape_fields_are_found():
    assert escape_fields() == {
        "constant", "height", "polynomial", "clause", "radius", "denominator", "scale"
    }


def test_dynamics_reads_no_escape_field():
    assert field_reads((SRC / "dynamics.py").read_text(), escape_fields()) == []


@pytest.mark.parametrize(
    "source",
    [
        "h = min(h, profile.height.radius - 1)",
        "def f(profile):\n    return profile.polynomial is not None",
        "print(outcome.proof.clause)",
    ],
)
def test_escape_field_checker_sees_each_read(source):
    assert field_reads(source, escape_fields())


def kind_uses(source: str) -> list[str]:
    """Each import or read of a `KIND_*` name and each read of `.kind` in
    `source`, as source text."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out += [f"import {a.name}" for a in node.names if a.name.startswith("KIND_")]
        elif isinstance(node, ast.Attribute) and (
            node.attr == "kind" or node.attr.startswith("KIND_")
        ):
            out.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id.startswith("KIND_"):
            out.append(node.id)
    return out


def three_argument_places(source: str) -> list[str]:
    """Each call `Place(...)` or `m.Place(...)` in `source` with three arguments."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "Place" or getattr(node.func, "attr", None) == "Place")
        and len(node.args) + len(node.keywords) == 3
    ]


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in SRC.glob("*.py") if path.stem not in ("fields", "parsing"))
)
def test_only_fields_knows_the_place_kind(module):
    assert kind_uses((SRC / f"{module}.py").read_text()) == []


def test_parser_reads_only_token_kinds():
    assert set(kind_uses((SRC / "parsing.py").read_text())) == {"tok.kind", "self.peek().kind"}


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_place_is_built_with_a_kind(module):
    assert three_argument_places((SRC / f"{module}.py").read_text()) == []


def test_place_kind_checkers_see_the_rule_broken():
    assert kind_uses("from .fields import KIND_INF, Place\nx = KIND_INF") == [
        "import KIND_INF", "KIND_INF"
    ]
    assert kind_uses("def f(place):\n    return place.kind == fields.KIND_ARCH") == [
        "place.kind", "fields.KIND_ARCH"
    ]
    source = "a = Place(field, ring.place_kind, pi)\nb = fields.Place(QQ, kind='prime', payload=2)"
    assert three_argument_places(source) == [
        "Place(field, ring.place_kind, pi)", "fields.Place(QQ, kind='prime', payload=2)"
    ]
    assert three_argument_places("c = Place(field, pi)\nd = Place(field)") == []


def _is_divisibility_test(test) -> bool:
    """Whether `test` reads `a % b == 0`, `0 == a % b` or `not a % b`."""
    def is_mod(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)

    def is_zero(node):
        return isinstance(node, ast.Constant) and node.value == 0

    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return is_mod(test.operand)
    if isinstance(test, ast.Compare) and len(test.ops) == 1 and isinstance(test.ops[0], ast.Eq):
        left, right = test.left, test.comparators[0]
        return (is_mod(left) and is_zero(right)) or (is_zero(left) and is_mod(right))
    return False


def division_loops(source: str) -> list[str]:
    """The `while a % b == 0` loops of `source` outside a function named
    `split`, each as 'function: test'."""
    return [
        f"{function}: {ast.unparse(node.test)}"
        for node, function in walk_with_function(ast.parse(source))
        if isinstance(node, ast.While) and function != "split" and _is_divisibility_test(node.test)
    ]


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_module_divides_out_a_prime_by_hand(module):
    assert division_loops((SRC / f"{module}.py").read_text()) == []


def test_division_loop_checker_sees_the_rule_broken():
    source = "def ord(a, pi):\n    e = 0\n    while a % pi == 0:\n        a //= pi\n        e += 1\n"
    assert division_loops(source) == ["ord: a % pi == 0"]


CLI_PRINTERS = {"_emit", "_diagnostic"}


def print_callers(source: str) -> list:
    """The function around each `print(...)` of `source` outside CLI_PRINTERS."""
    return [
        function
        for node, function in walk_with_function(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        and function not in CLI_PRINTERS
    ]


def test_cli_prints_only_through_emit_and_diagnostic():
    assert print_callers((SRC / "cli.py").read_text()) == []


def test_print_checker_sees_the_rule_broken():
    source = "def _cmd_x(args):\n    print('x')\n    return 0\nprint('y')\n"
    assert print_callers(source) == ["_cmd_x", None]


def handler_references(source: str) -> dict:
    """Each module-level function `_cmd_*` of `source`, with the function
    around each reference to it (None at module level)."""
    tree = ast.parse(source)
    refs = {
        node.name: []
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    }
    for node, function in walk_with_function(tree):
        if isinstance(node, ast.Name) and node.id in refs:
            refs[node.id].append(function)
    return refs


def test_each_cli_handler_is_named_once_in_the_parser():
    refs = handler_references((SRC / "cli.py").read_text())
    assert len(refs) == 7  # one per subcommand
    assert {name: where for name, where in refs.items() if where != ["_build_parser"]} == {}


def test_handler_checker_sees_the_rule_broken():
    # a second table of handlers, and a handler the parser never names
    source = (
        "def _cmd_a(args):\n    return 0\n"
        "def _cmd_b(args):\n    return 0\n"
        "def _build_parser():\n    sp.set_defaults(handler=_cmd_a)\n"
        "_HANDLERS = {'a': _cmd_a}\n"
    )
    assert handler_references(source) == {"_cmd_a": ["_build_parser", None], "_cmd_b": []}


FACTOR_POLY_BANNED = {"iter_monic_irreducibles", "is_irreducible"}


def second_frobenius_loops(source: str) -> list[str]:
    """Each Frobenius step `ppow_mod(p, a, p, m)` of `source` outside
    `_degree_parts`, and each name of FACTOR_POLY_BANNED that a function
    `factor_poly` reads, as 'function: text'."""
    out = []
    for node, function in walk_with_function(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and "ppow_mod" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and len(node.args) > 2
            and ast.unparse(node.args[2]) == "p"
            and function != "_degree_parts"
        ):
            out.append(f"{function}: {ast.unparse(node)}")
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if function == "factor_poly" and name in FACTOR_POLY_BANNED:
            out.append(f"{function}: {name}")
    return out


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_one_frobenius_loop(module):
    assert second_frobenius_loops((SRC / f"{module}.py").read_text()) == []


def test_frobenius_loop_is_found():
    source = (SRC / "fppoly.py").read_text()
    assert second_frobenius_loops(source.replace("def _degree_parts", "def _parts")) == [
        "_parts: ppow_mod(p, frob, p, f)"
    ]


@pytest.mark.parametrize(
    "source",
    [
        "def is_irreducible(p, a):\n    frob = ppow_mod(p, frob, p, a)",
        "def factor_poly(p, a):\n    for g in fppoly.iter_monic_irreducibles(p):\n        pass",
        "def factor_poly(p, a):\n    return {} if is_irreducible(p, a) else None",
    ],
)
def test_frobenius_checker_sees_each_second_loop(source):
    assert second_frobenius_loops(source)
