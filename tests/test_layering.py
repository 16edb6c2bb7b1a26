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
nor calls `is_irreducible`.  Every public function and class of the
library is reached from another definition, is traced by perfbench, or
is listed as library API with its reason, so a wrapper that only a test
or a second name reaches cannot come back unnoticed.  The checks read the
source (with `ast`), so they need nothing to run.
"""

import ast
from pathlib import Path

import pytest

from test_traced_names import TRACED

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


# Public names that no src definition reaches and perfbench does not trace,
# each with the reason it stays.
LIBRARY_API = {
    "bounds.automorphism_cycle_bound": "ROADMAP item 13 (degree-1 maps) wires it",
    "bounds.equal_distance_family_bound": "ROADMAP item 12 (cycle lemmas) wires it",
    "fields.BaseField.gen": "library API: the element t of F_p(t)",
    "fields.GlobalFieldElement.as_fraction": "library API: an element of Q as a Fraction",
    "fields.find_small_prime_outside": "ROADMAP items 14 and 18 pick good places with it",
    "fields.irreducible_place": "library API: the place of a monic irreducible",
    "fields.prime_place": "library API: the place of a prime",
    "fields.is_s_integer": "library API",
    "fields.support": "library API: the places and valuations of an element",
    "fppoly.count_irreducibles": "library API: Gauss's count of monic irreducibles",
    "projective.from_affine": "library API: the point [x : 1]",
    "projective.log_distance": "library API: the logarithmic distance at a place",
    "projective.normalize": "library API",
    "projective.ProjPoint.affine": "library API: a finite point as its affine value x/y",
    "sunit.s_unit_generators": "library API: the generators of the S-unit group",
    "sunit.SUnitGroupDesc.rank": "library API: the rank of the S-unit group",
}


def unreached_public_names(sources: dict) -> list[str]:
    """The module-level public functions and classes ('module.name') of
    `sources` (module name -> source) that no other definition reaches: a
    reference counts from any module but `__init__`, by a name bound there
    (defined or imported with `from .module import name`) or by
    `module.name` after `from . import module`, and not from the body of
    the definition itself.  The public methods and properties of public
    classes ('module.Class.name') count as reached by any attribute of
    their name outside their own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    public = {
        (module, node.name)
        for module, tree in trees.items()
        if module != "__init__"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    reached = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        bound = {name: (owner, name) for owner, name in public if owner == module}
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    else:
                        bound[alias.asname or alias.name] = (node.module, alias.name)
        for stmt in tree.body:
            own = (module, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    target = bound.get(node.id)
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                    target = (node.value.id, node.attr)
                else:
                    continue
                if target in public and target != own:
                    reached.add(target)
    unreached = [f"{module}.{name}" for module, name in public - reached]
    library = [tree for module, tree in trees.items() if module != "__init__"]
    attributes = [node for tree in library for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    methods = [
        (f"{module}.{cls.name}.{method.name}", method)
        for module, tree in trees.items() if module != "__init__"
        for cls in tree.body if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
    ]
    for name, method in methods:
        own = set(map(id, ast.walk(method)))
        if not any(a.attr == method.name and id(a) not in own for a in attributes):
            unreached.append(name)
    return sorted(unreached)


def test_every_public_name_is_reached_traced_or_library_api():
    # a traced method, and its class
    traced = {f"{module}.{name}" for module, attr, _ in TRACED for name in (attr, attr.split(".")[0])}
    unreached = unreached_public_names({path.stem: path.read_text() for path in SRC.glob("*.py")})
    assert [name for name in unreached if name not in traced | set(LIBRARY_API)] == []
    # an entry for a name that is reached, or gone, would hide nothing
    assert sorted(set(LIBRARY_API) - set(unreached)) == []


def test_public_name_checker():
    # a wrapper that only `__init__` exports, and a class and a function
    # that only name themselves
    assert unreached_public_names({
        "__init__": "from .m import escapes",
        "m": "def clause(x):\n    return x\ndef escapes(x):\n    return clause(x)\n",
    }) == ["m.escapes"]
    assert unreached_public_names({
        "m": "class A:\n    def twin(self):\n        return A()\n"
             "def f(n):\n    return f(n - 1) if n else 0\n",
    }) == ["m.A", "m.A.twin", "m.f"]
    # a method that nothing reaches, one that only calls itself, and a
    # property read from another module; methods of private classes are free
    assert unreached_public_names({
        "m": "class A:\n    def twin(self):\n        return self.twin()\n"
             "    def lone(self):\n        return 0\n"
             "    @property\n    def size(self):\n        return 1\n"
             "class _B:\n    def hook(self):\n        return 0\n",
        "n": "from .m import A\nX = A().size\n",
    }) == ["m.A.lone", "m.A.twin"]
    # reached from another module by name and through the module, from the
    # same module, and from a module-level statement; private names are free
    assert unreached_public_names({
        "m": "def f():\n    return 1\ndef g():\n    return 2\ndef h():\n    return f()\n"
             "def _p():\n    return 0\n",
        "n": "from .m import h\nfrom . import m\ndef k():\n    return h() + m.g()\n",
        "o": "from .n import k\nX = k()\n",
    }) == []
