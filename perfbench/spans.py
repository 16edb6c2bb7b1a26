"""Spans around the library's public functions, recorded from outside.

`Tracer.install` replaces each traced function at every module attribute
(and class attribute) where the library looks it up, so a call from
`dynamics` to `apply_map` is seen as well as a call through `ratmap`.
`uninstall` puts the originals back.

Every call becomes a node of a calling-context tree.  A function in
HOT is aggregated: all its calls under one parent node share one node
that counts calls and total time.  Any other function gets one span per
call with its own start and end.  Both kinds carry the job id and the
parent node.  Since a child's time lies inside its parent's, a node's
self time is its total minus the totals of its children (`self_times`).
"""

from __future__ import annotations

import json
import time

# (module, attribute, qualified metric name); a dotted attribute is a method
TRACED = (
    ("cli", "run", "cli.run"),
    ("parsing", "parse_map", "parsing.parse_map"),
    ("dynamics", "orbit", "dynamics.orbit"),
    ("dynamics", "validate_orbit_report", "dynamics.validate_orbit_report"),
    ("dynamics", "functional_graph", "dynamics.functional_graph"),
    ("dynamics", "check_period_relation", "dynamics.check_period_relation"),
    ("ratmap", "apply_map", "ratmap.apply_map"),
    ("ratmap", "ReducedMap.apply", "ratmap.ReducedMap.apply"),
    ("ratmap", "sylvester_resultant", "ratmap.sylvester_resultant"),
    ("ratmap", "bad_places", "ratmap.bad_places"),
    ("ratmap", "reduce_map", "ratmap.reduce_map"),
    ("ratmap", "escape_profile", "ratmap.escape_profile"),
    ("ratmap", "multiplier", "ratmap.multiplier"),
    ("projective", "point_from_raw", "projective.point_from_raw"),
    ("projective", "reduce_point", "projective.reduce_point"),
    ("fppoly", "pmul", "fppoly.pmul"),
    ("fppoly", "pdivmod", "fppoly.pdivmod"),
    ("fppoly", "pgcd", "fppoly.pgcd"),
    ("fppoly", "factor_poly", "fppoly.factor_poly"),
    ("fppoly", "is_irreducible", "fppoly.is_irreducible"),
    ("fppoly", "enumerate_monic_irreducibles", "fppoly.enumerate_monic_irreducibles"),
    ("residue", "ResidueField.mul", "residue.ResidueField.mul"),
    ("residue", "ResidueField.inv", "residue.ResidueField.inv"),
    ("residue", "ResidueField.multiplicative_order", "residue.ResidueField.multiplicative_order"),
    ("residue", "field_of_size", "residue.field_of_size"),
    ("fields", "factor_int", "fields.factor_int"),
    ("fields", "is_prime_int", "fields.is_prime_int"),
    ("bounds", "compute_bounds", "bounds.compute_bounds"),
    ("bounds", "certified_ceiling", "bounds.certified_ceiling"),
    ("bounds", "verify_report", "bounds.verify_report"),
    ("sunit", "solve_unit_equation", "sunit.solve_unit_equation"),
    ("sunit", "enumerate_s_units", "sunit.enumerate_s_units"),
)

# called often enough that one span per call would swamp memory
HOT = {
    "dynamics.orbit", "dynamics.validate_orbit_report", "ratmap.apply_map",
    "ratmap.ReducedMap.apply", "ratmap.escape_profile", "projective.point_from_raw",
    "projective.reduce_point", "fppoly.pmul", "fppoly.pdivmod", "fppoly.pgcd",
    "fppoly.is_irreducible", "residue.ResidueField.mul", "residue.ResidueField.inv",
    "fields.is_prime_int", "bounds.certified_ceiling",
}

GENERATORS = {"sunit.enumerate_s_units"}


class Node:
    __slots__ = ("id", "name", "job", "parent", "calls", "total", "start", "end",
                 "children", "counts")

    def __init__(self, id, name, job, parent):
        self.id, self.name, self.job, self.parent = id, name, job, parent
        self.calls = 0
        self.total = 0.0
        self.start = self.end = None
        self.children = {}  # hot children by name
        self.counts = {}

    def record(self) -> dict:
        out = {"id": self.id, "name": self.name, "job": self.job,
               "parent": None if self.parent is None else self.parent.id,
               "calls": self.calls, "total_s": self.total}
        if self.start is not None:
            out["start"], out["end"] = self.start, self.end
        if self.counts:
            out["counts"] = self.counts
        return out


def _orbit_counts(node, args, result):
    c = node.counts
    if hasattr(result, "cycle"):
        c["steps"] = c.get("steps", 0) + len(result.tail) + len(result.cycle)
        c["preperiodic"] = c.get("preperiodic", 0) + 1
    else:
        c["steps"] = c.get("steps", 0) + result.steps
        key = "divergent" if result.divergent else "undecided"
        c[key] = c.get(key, 0) + 1


def _pmul_counts(node, args, result):
    node.counts["coeff_pairs"] = node.counts.get("coeff_pairs", 0) + len(args[1]) * len(args[2])


def _graph_counts(node, args, result):
    node.counts["nodes"] = node.counts.get("nodes", 0) + len(result.successors)


COUNTERS = {
    "dynamics.orbit": _orbit_counts,
    "fppoly.pmul": _pmul_counts,
    "dynamics.functional_graph": _graph_counts,
}


class Tracer:
    def __init__(self):
        self.nodes: list[Node] = []
        self.stack: list[Node] = []
        self.job = None
        self._saved = []

    def _node(self, name, parent) -> Node:
        node = Node(len(self.nodes), name, self.job, parent)
        self.nodes.append(node)
        return node

    def begin_job(self, job_id):
        self.job = job_id
        node = self._node("job", None)
        node.calls = 1
        node.start = time.perf_counter()
        self.stack.clear()
        self.stack.append(node)

    def end_job(self):
        node = self.stack.pop()
        node.end = time.perf_counter()
        node.total = node.end - node.start

    def _enter(self, name, hot):
        parent = self.stack[-1]
        if hot:
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = self._node(name, parent)
        else:
            node = self._node(name, parent)
        self.stack.append(node)
        return node

    def wrap(self, fn, name):
        hot = name in HOT
        count = COUNTERS.get(name)
        perf = time.perf_counter
        enter, stack = self._enter, self.stack

        if name in GENERATORS:
            # time spent inside next(); the consumer's own work is not counted
            def gen_wrapper(*args, **kwargs):
                node = enter(name, hot)
                stack.pop()
                node.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(node)
                    t0 = perf()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        node.total += perf() - t0
                        stack.pop()
                    yield value

            return gen_wrapper

        def wrapper(*args, **kwargs):
            node = enter(name, hot)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                node.calls += 1
                node.total += t1 - t0
                if not hot:
                    node.start, node.end = t0, t1
                stack.pop()
            if count is not None:
                count(node, args, result)
            return result

        return wrapper

    def install(self, lib):
        """Wrap every traced function at each place the library binds it."""
        modules = list(lib.modules.values())
        for modname, attr, name in TRACED:
            owner = getattr(lib, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self.wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []

    def records(self) -> list[dict]:
        return [n.record() for n in self.nodes]


def self_times(records) -> dict:
    """Self time per node id: its total minus the totals of its children."""
    out = {r["id"]: r["total_s"] for r in records}
    for r in records:
        if r["parent"] is not None:
            out[r["parent"]] -= r["total_s"]
    return out


def layer_metrics(records) -> dict:
    """Per-function sums: calls, inclusive s (outermost calls only), self_s, counts."""
    by_id = {r["id"]: r for r in records}
    selfs = self_times(records)
    out: dict = {}
    for r in records:
        name = r["name"]
        m = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        m["calls"] += r["calls"]
        m["self_s"] += selfs[r["id"]]
        parent = by_id.get(r["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            m["s"] += r["total_s"]
        for key, value in r.get("counts", {}).items():
            m[key] = m.get(key, 0) + value
    return out


def write_records(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
