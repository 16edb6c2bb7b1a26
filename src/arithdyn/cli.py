"""Command-line front end.

Subcommands: analyze, orbit, search, graph, bounds, sunit-solve,
verify-corollary3.  Every subcommand supports --json; JSON reports are
deterministic (no timestamps) and print big integers as exact decimal
strings.  Exit codes: 0 success, 1 usage error, 2 computation error
(budget exhausted, unsupported configuration, undecidable orbit), 3 a
verification subcommand found a bound violation (which would indicate an
implementation bug, not a counterexample).

Each subcommand is declared once, in `_build_parser`: its flags and its
handler `_cmd_*`, which `run` calls.  This paragraph is left out of --help.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .bounds import BoundContext, compute_bounds, verify_report
from .dynamics import (
    DEFAULT_MAX_STEPS,
    Budget,
    OrbitReport,
    functional_graph,
    orbit,
    preperiodic_search,
)
from .errors import ArithDynError, MapParseError
from .fields import (
    QQ,
    Z,
    BaseField,
    archimedean_place,
    check_length,
    function_field,
    infinite_place,
    parse_place,
    parse_place_set,
    place_set,
)
from .parsing import parse_element, parse_map, parse_point
from .ratmap import bad_places, make_map, reduce_map, resultant, resultant_raw
from .residue import DEFAULT_NODE_BUDGET
from .sunit import UnitEquationInstance, unit_equation_report


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_field(token: str) -> BaseField:
    token = token.strip()
    if token in ("Q", "q"):
        return QQ
    if token.lower().startswith("fp:"):
        try:
            p = Z.parse(token[3:])
        except ValueError:
            raise UsageError(f"bad characteristic in {token!r} (use Fp:<prime>)") from None
        return function_field(p)
    raise UsageError(f"unknown field {token!r} (use Q or Fp:<prime>)")


def _parse_places(parse, field: BaseField, token: str):
    """parse_place or parse_place_set, a malformed number being a usage error."""
    try:
        return parse(field, token)
    except ValueError:
        raise UsageError(f"bad place {token!r} (use p:<prime>, pi:<c0,c1,...> or inf)") from None


def _map_input(args):
    """The field and the map of a subcommand declared with `map_input`."""
    field = _parse_field(args.field)
    return field, parse_map(args.map, field)


def _budget(args) -> tuple[Budget, dict]:
    """The budget of the flags, and its echo in the JSON report."""
    echo = {"max_steps": args.max_steps, "height_cap": args.height_cap}
    return Budget(**echo), echo


def _int_at_least(low, complaint: str, name: str):
    """An argparse type: an ASCII int token (`Z.parse`) >= low, else
    `complaint` with the token.  argparse names the type in its "invalid
    ... value" message, so each keeps the name it is bound to."""

    def check(token: str) -> int:
        n = Z.parse(token)
        if n < low:
            raise argparse.ArgumentTypeError(complaint.format(repr(token)))
        return n

    check.__name__ = name
    return check


_positive_int = _int_at_least(1, "{} is not a positive integer", "_positive_int")
_nonnegative_int = _int_at_least(0, "{} is a negative integer", "_nonnegative_int")
_int = _int_at_least(-math.inf, "", "int")  # any int, e.g. --char, which BoundContext checks

# (JSON key, text label) of each bound of a BoundSet, in print order; a
# bound that does not apply (None) is left out
_BOUNDS = (
    ("eta", "orbit-size bound eta"),
    ("cycle_bound", "cycle-length bound"),
    ("i_bound", "small-residue-field bound"),
    ("r_bound", "unit-equation solution bound"),
    ("evertse_bound", "two-unit solution bound (rank 2(|S|-1))"),
)


def _bound_items(bs, table=_BOUNDS) -> list[tuple[str, str, int]]:
    """(key, label, value) of each bound of `table` that applies to `bs`."""
    items = [(key, label, getattr(bs, key)) for key, label in table]
    return [item for item in items if item[2] is not None]


def _orbit_json(outcome) -> dict:
    if isinstance(outcome, OrbitReport):
        return {
            "start": str(outcome.start),
            "tail": [str(q) for q in outcome.tail],
            "cycle": [str(q) for q in outcome.cycle],
            "m": outcome.m,
            "n": outcome.n,
            "undecided": False,
            "divergent": False,
        }
    # a height past a user cap may be too long to print; it is an int
    check_length(Z, outcome.last_height.bit_length())
    out = {
        "start": str(outcome.start),
        "tail": [],
        "cycle": [],
        "m": 0,
        "n": 0,
        "undecided": not outcome.divergent,
        "divergent": outcome.divergent,
        "reason": outcome.reason,
        "steps": outcome.steps,
        "last_height": str(outcome.last_height),
    }
    if outcome.proof is not None:
        out["proof"] = {"clause": outcome.proof.clause, "radius": str(outcome.proof.radius)}
    return out


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value, indent: str = "") -> str:
    """The bytes of json.dumps(value, indent=2) for a value nested at
    `indent`, whose dict keys are strs.  json runs its pure-Python encoder
    whenever `indent` is set, so a list of ints only or of strs only is
    joined here in one call; every other scalar goes through json.dumps."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        brackets = "{}"
        items = (f"{_encode_str(k)}: {_json_text(v, inner)}" for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        brackets = "[]"
        kinds = set(map(type, value))  # bools are not `int` here
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif kinds == {str}:
            items = map(_encode_str, value)
        else:
            items = (_json_text(v, inner) for v in value)
    else:
        return json.dumps(value)
    body = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _emit(args, result: dict, text_lines: list[str]) -> None:
    if args.json:
        report = {
            "tool": "arithdyn",
            "version": __version__,
            "command": args.command,
            "result": result,
        }
        print(_json_text(report))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_analyze(args) -> int:
    field, phi = _map_input(args)
    res = resultant(phi)
    check_length(field.ring, field.ring.length(res.num))  # before it prints
    bad = sorted(bad_places(phi), key=lambda p: p.sort_key())
    # the smallest S making the orbit bounds applicable to this map
    default_S = place_set(
        field, set(bad) | {infinite_place(field)}
    )
    ctx = BoundContext(field.char, 1, default_S.size)
    bounds = _bound_items(compute_bounds(ctx), _BOUNDS[:2])  # eta and the cycle bound
    result = {
        "map": phi.coefficient_arrays() | {"affine": phi.affine_str()},
        "field": str(field),
        "degree": phi.degree,
        "resultant": str(res),
        "bad_places": [p.serialize() for p in bad],
        "good_reduction_everywhere": not bad,
        "default_S": default_S.serialize(),
        "bounds": {key: str(value) for key, _, value in bounds},
    }
    lines = [
        f"map: {phi.affine_str()} over {field}",
        f"degree: {phi.degree}",
        f"resultant: {res}",
        "bad places: " + (", ".join(str(p) for p in bad) if bad else "none"),
        f"default S: {default_S}",
        "; ".join(f"{label}: {value}" for _, label, value in bounds),
    ]
    _emit(args, result, lines)
    return 0


def _cmd_orbit(args) -> int:
    field, phi = _map_input(args)
    start = parse_point(field, args.point)
    budget, echo = _budget(args)
    outcome = orbit(phi, start, budget)
    result = _orbit_json(outcome) | {
        "map": phi.affine_str(),
        "field": str(field),
        "budget": echo,
    }
    lines = [f"start: {outcome.start}"]
    if isinstance(outcome, OrbitReport):
        lines += [
            "tail: " + (", ".join(str(q) for q in outcome.tail) or "(empty)"),
            "cycle: " + ", ".join(str(q) for q in outcome.cycle),
            f"tail length m = {outcome.m}, cycle length n = {outcome.n}, "
            f"orbit size = {outcome.total}",
        ]
    elif outcome.divergent:
        lines.append(
            f"orbit diverges (escape criterion, {outcome.proof.clause} clause, "
            f"radius {outcome.proof.radius}, step {outcome.steps}): not preperiodic"
        )
    else:
        lines.append(
            f"undecided: budget exhausted after {outcome.steps} steps "
            f"(height {outcome.last_height})"
        )
    _emit(args, result, lines)
    return 2 if result["undecided"] else 0


def _cmd_search(args) -> int:
    field, phi = _map_input(args)
    budget, echo = _budget(args)
    res = preperiodic_search(phi, args.height, budget)
    result = {
        "map": phi.affine_str(),
        "field": str(field),
        "height": args.height,
        "budget": echo,
        "preperiodic": [_orbit_json(r) for r in res.preperiodic],
        "preperiodic_count": len(res.preperiodic),
        "undecided": [str(p) for p in res.undecided],
        "scanned": res.scanned,
        "divergent": res.divergent,
    }
    lines = [
        f"map: {phi.affine_str()} over {field}, height <= {args.height}",
        f"scanned {res.scanned} points: {len(res.preperiodic)} preperiodic, "
        f"{res.divergent} provably divergent, {len(res.undecided)} undecided",
    ]
    for r in res.preperiodic:
        lines.append(
            f"  {r.start}: tail {[str(q) for q in r.tail]}, "
            f"cycle {[str(q) for q in r.cycle]} (m={r.m}, n={r.n})"
        )
    if res.undecided:
        lines.append("undecided points: " + ", ".join(str(p) for p in res.undecided))
    _emit(args, result, lines)
    return 0


def _cmd_graph(args) -> int:
    field, phi = _map_input(args)
    place = _parse_places(parse_place, field, args.place)
    psi = reduce_map(phi, place)
    g = functional_graph(psi, node_budget=args.node_budget)
    rf = g.rfield
    # [a : 1] for each a and then [1 : 0]: every node in JSON, the cycle
    # nodes in text
    labels = [f"[{s} : 1]" for s in map(rf.element_str, range(rf.q))] + ["[1 : 0]"]
    result = {
        "map": phi.affine_str(),
        "place": place.serialize(),
        "q": rf.q,
        "nodes": g.node_count,
        "labels": labels,
        "successors": list(g.successors),
        "cycles": [list(c) for c in g.cycles],
        "tail_depth": list(g.tail_depth),
    }
    lines = [
        f"map: {phi.affine_str()} reduced at {place} (q = {rf.q})",
        f"{g.node_count} nodes, {len(g.cycles)} cycles",
    ]
    for cyc in g.cycles:
        lines.append("  cycle: " + " -> ".join(labels[c] for c in cyc))
    tails = sum(1 for d in g.tail_depth if d)
    lines.append(f"  tail nodes: {tails}, max depth {max(g.tail_depth)}")
    _emit(args, result, lines)
    return 0


def _cmd_bounds(args) -> int:
    ctx = BoundContext(args.char, args.degree, args.s)
    bounds = _bound_items(compute_bounds(ctx))
    result = {key: str(value) for key, _, value in bounds}
    lines = [f"context: characteristic {ctx.p}, D = {ctx.D}, |S| = {ctx.s}"]
    lines += [f"{label}: {value}" for _, label, value in bounds]
    _emit(args, result, lines)
    return 0


def _cmd_sunit_solve(args) -> int:
    field = _parse_field(args.field)
    S = _parse_places(parse_place_set, field, args.S)
    a = parse_element(field, args.a)
    b = parse_element(field, args.b)
    inst = UnitEquationInstance(a, b, S, args.cap)
    report = unit_equation_report(inst)
    result = {
        "a": str(a),
        "b": str(b),
        "S": S.serialize(),
        "cap": args.cap,
        "solutions": [[str(x), str(y)] for x, y in report.solutions],
        "count": len(report.solutions),
        "s_trivial": report.s_trivial,
        "bound": None if report.bound is None else str(report.bound),
        "within_bound": report.within_bound,
    }
    def _wrap(e) -> str:
        s = str(e)
        return f"({s})" if ("+" in s or "-" in s[1:]) else s

    lines = [
        f"{_wrap(a)}*x + {_wrap(b)}*y = 1 over {field}, "
        f"S = {S}, exponent cap {args.cap}",
        f"S-trivial: {report.s_trivial}",
        f"solutions found within cap: {len(report.solutions)}",
    ]
    for x, y in report.solutions:
        lines.append(f"  x = {x}, y = {y}")
    if report.bound is not None:
        lines.append(
            f"solution-count bound: {report.bound} "
            f"({'OK' if report.within_bound else 'VIOLATED'})"
        )
    _emit(args, result, lines)
    return 3 if report.within_bound is False else 0


def _cmd_verify_corollary3(args) -> int:
    field = QQ
    budget, _ = _budget(args)
    maps = []
    if args.maps_file:
        with open(args.maps_file, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if line:
                    maps.append((line, parse_map(line, field)))
    else:
        lo, hi = args.c_range
        for c in range(lo, hi + 1):
            phi = make_map(field, (c, 0, 1), (1, 0, 0))
            maps.append((phi.affine_str(), phi))
    S = place_set(field, [archimedean_place()])
    ctx = BoundContext(0, 1, 1)
    per_map = []
    max_cycle = (0, None, None)
    max_orbit = (0, None, None)
    violations = []
    for expr, phi in maps:
        # over Q with S = {inf}: good reduction everywhere is a unit resultant
        if not field.ring.is_unit(resultant_raw(phi)):
            raise ArithDynError(
                f"{expr} does not have good reduction everywhere (its resultant is not a unit)"
            )
        res = preperiodic_search(phi, args.height, budget)
        worst_n = max((r.n for r in res.preperiodic), default=0)
        worst_total = max((r.total for r in res.preperiodic), default=0)
        for r in res.preperiodic:
            if r.n > max_cycle[0]:
                max_cycle = (r.n, expr, str(r.start))
            if r.total > max_orbit[0]:
                max_orbit = (r.total, expr, str(r.start))
            for check in verify_report(r, phi, ctx, S):
                if not check.passed:
                    violations.append(
                        {
                            "map": expr,
                            "start": str(r.start),
                            "check": check.name,
                            "observed": check.observed,
                            "bound": check.bound,
                        }
                    )
        per_map.append(
            {
                "map": expr,
                "preperiodic": len(res.preperiodic),
                "max_cycle": worst_n,
                "max_orbit": worst_total,
                "undecided": len(res.undecided),
            }
        )
    result = {
        "height": args.height,
        "maps": len(maps),
        "per_map": per_map,
        "max_cycle": {"value": max_cycle[0], "map": max_cycle[1], "point": max_cycle[2]},
        "max_orbit": {"value": max_orbit[0], "map": max_orbit[1], "point": max_orbit[2]},
        "violations": violations,
        "all_pass": not violations,
    }
    lines = [
        f"swept {len(maps)} maps at height {args.height}",
        f"largest cycle: {max_cycle[0]} ({max_cycle[1]} at {max_cycle[2]})",
        f"largest orbit: {max_orbit[0]} ({max_orbit[1]} at {max_orbit[2]})",
        "all bounds hold" if not violations else f"{len(violations)} VIOLATIONS",
    ]
    _emit(args, result, lines)
    return 0 if not violations else 3


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process."""
    parser = _Parser(prog="arithdyn", description=(__doc__ or "").rpartition("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, summary, map_input=False):
        """The subparser `name` run by `handler`; `map_input` declares
        --field and the map, which `_map_input` reads."""
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(handler=handler)
        if map_input:
            sp.add_argument("--field", required=True)
            sp.add_argument("map")
        return sp

    def add_common(sp, with_budgets=True):
        """--json, and the budget flags that `_budget` reads, after the
        subcommand's own flags."""
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        if with_budgets:
            sp.add_argument("--max-steps", type=_positive_int, default=DEFAULT_MAX_STEPS)
            sp.add_argument("--height-cap", type=_nonnegative_int, default=None)

    sp = subcommand("analyze", _cmd_analyze, "degree, resultant, bad places", map_input=True)
    add_common(sp, with_budgets=False)

    sp = subcommand("orbit", _cmd_orbit, "tail/cycle decomposition of one point", map_input=True)
    sp.add_argument("--point", required=True)
    add_common(sp)

    sp = subcommand("search", _cmd_search, "preperiodic points up to a height", map_input=True)
    sp.add_argument("--height", type=_positive_int, required=True)
    add_common(sp)

    sp = subcommand("graph", _cmd_graph, "functional graph of the reduced map", map_input=True)
    sp.add_argument("--place", required=True)
    sp.add_argument("--node-budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    add_common(sp, with_budgets=False)

    sp = subcommand("bounds", _cmd_bounds, "evaluate all bound formulas")
    sp.add_argument("--char", type=_int, required=True)
    sp.add_argument("--degree", type=_positive_int, required=True, help="extension degree D")
    sp.add_argument("--s", type=_positive_int, required=True, help="|S|")
    add_common(sp, with_budgets=False)

    sp = subcommand("sunit-solve", _cmd_sunit_solve, "a*x + b*y = 1 in S-units, brute force")
    sp.add_argument("--field", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--S", required=True, help="';'-separated place tokens")
    sp.add_argument("--cap", type=_positive_int, required=True)
    add_common(sp, with_budgets=False)

    sp = subcommand(
        "verify-corollary3",
        _cmd_verify_corollary3,
        "sweep everywhere-good maps; cycles <= 3 and orbits <= 12 over Q",
    )
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--c-range", type=_parse_range, default=None)
    group.add_argument("--maps-file", default=None)
    sp.add_argument("--height", type=_positive_int, default=100)
    add_common(sp)

    return parser


def _parse_range(token: str) -> tuple[int, int]:
    try:
        lo, hi = map(Z.parse, token.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad range {token!r}, expected LO:HI") from exc
    if lo > hi:
        raise UsageError(f"empty range {token!r}")
    return lo, hi


def _diagnostic(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def run(argv: list[str]) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _diagnostic("usage", str(exc))
        return 1
    try:
        return args.handler(args)
    except (UsageError, MapParseError) as exc:
        _diagnostic("usage", str(exc))
        return 1
    except ArithDynError as exc:
        _diagnostic(type(exc).__name__, str(exc))
        return 2
    except OSError as exc:
        _diagnostic("io", str(exc))
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
