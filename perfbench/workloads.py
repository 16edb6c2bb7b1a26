"""The four benchmark workloads: seeded inputs, one job runner, one checker.

A workload is a list of jobs drawn from a seed.  Job sizes follow a fixed
cyclic schedule of slots, so every seed gets the same mix of sizes and
only the concrete inputs change; no two jobs share an input, so the
library's caches cannot turn cold work into hits.  `run` calls the
library on one job and returns its raw outputs; `check` compares them
with answers from `oracles` and returns "ok", "refused" or a failure
message.  Checks never inspect how a non-preperiodic point was
classified (undecided or divergent), only that no preperiodic point is
lost or added.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction

import oracles as orc

Q_HEIGHT = 24  # coordinate height of the Corollary-3 sweep
Q_HEIGHT_CAP = 10**40  # the library's default Q height cap
FF_ORACLE_DEGREE = 40  # depth of the independent F_p(t) orbit search


@dataclass
class Job:
    kind: str
    work: int  # input size completed, in the workload's work unit
    args: dict = field(default_factory=dict)
    key: object = None  # what must differ between jobs; all of args by default
    deferred: list = field(default_factory=list)  # checks run after memory is measured


@dataclass
class Workload:
    name: str
    why: str
    unit: str  # what `work` counts
    rate: float  # jobs per second on a fast machine; sizes the pool and traced runs
    make: object  # (rng, job index, tiny) -> Job
    run: object  # (lib, job) -> outputs
    check: object  # (job, outputs) -> "ok" | "refused" | failure text
    points: object  # (job, outputs) -> (start points scanned, left undecided)
    warm: object = None  # (lib) -> None, cache-filling set-up work
    # speed-probe parts whose drift tracks this workload's (run.PROBE_PARTS)
    probe_parts: tuple = ("arith", "alloc", "orbit", "poly")


def generate(wl: Workload, rng, count: int, tiny: bool, taken: set) -> list[Job]:
    """`count` jobs with pairwise distinct inputs (and none in `taken`)."""
    jobs = []
    i = misses = 0
    while len(jobs) < count:
        job = wl.make(rng, i, tiny)
        key = job.key if job.key is not None else (job.kind, repr(sorted(job.args.items())))
        if key in taken:
            misses += 1
            if misses > 1000:
                raise RuntimeError(f"{wl.name} slot {i} has run out of distinct inputs")
            continue
        taken.add(key)
        jobs.append(job)
        i += 1
        misses = 0
    return jobs


# ---------------------------------------------------------------------------
# shared input helpers


def _rand_poly(rng, p: int, max_deg: int):
    return orc.trim(rng.randrange(p) for _ in range(max_deg + 1))


def _form_text(co, coeff_text) -> str:
    d = len(co) - 1
    terms = [f"({coeff_text(c)})*X^{i}*Y^{d - i}" for i, c in enumerate(co) if c]
    return " + ".join(terms)


def map_text_q(fco, gco) -> str:
    return f"[{_form_text(fco, str)} : {_form_text(gco, str)}]"


def map_text_ff(fco, gco) -> str:
    return f"[{_form_text(fco, orc.poly_str)} : {_form_text(gco, orc.poly_str)}]"


def _ff_value(p, co, c):
    """F(c, 1) in F_p[t] for a constant c in F_p."""
    acc = ()
    for coeff in reversed(co):
        acc = orc.padd(p, orc.pmul(p, acc, (c,) if c else ()), coeff)
    return acc


def _ff_nondegenerate(p, fco, gco) -> bool:
    """Res(F, G) != 0, shown in a fixed residue field (a rare miss rejects a map)."""
    fld = orc.test_field(p, 9 if p == 2 else 6)
    red = lambda co: [orc.code_of(p, orc.pmod(p, c, fld.modulus)) for c in co]  # noqa: E731
    return orc.form_resultant(fld, red(fco), red(gco)) != 0


def capture_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def _error_kind(err: str):
    try:
        return json.loads(err.strip().splitlines()[-1])["error"]
    except (ValueError, KeyError, IndexError):
        return None


def _check_report_chain(step, tail, cycle) -> str | None:
    """A reported tail/cycle is a true orbit (distinct points make the cycle minimal)."""
    chain = list(tail) + list(cycle)
    if len(set(chain)) != len(chain) or not cycle:
        return "report repeats points or has no cycle"
    for a, b in zip(chain, chain[1:] + [cycle[0]]):
        if step(a) != b:
            return "report successor is wrong"
    return None


# ---------------------------------------------------------------------------
# q_sweep: the Corollary-3 sweep over Q


def _q_general(rng):
    """A degree-2 map over Q outside the [F : u*Y^d] shape."""
    family = rng.randrange(3)
    if family == 0:  # z^2 + a/b^2
        b = rng.choice((2, 3, 4))
        a = rng.choice([a for a in range(-9 * b * b, 9 * b * b + 1) if math.gcd(a, b) == 1])
        return (a, 0, b * b), (b * b, 0, 0)
    if family == 1:  # (z^2 + a)/(b*z)
        return (rng.choice([a for a in range(-12, 13) if a]), 0, 1), (0, rng.randint(1, 6), 0)
    while True:  # (z^2 + a)/(z + b)
        a, b = rng.randint(-12, 12), rng.randint(-12, 12)
        if a + b * b:
            return (a, 0, 1), (b, 1, 0)


def _q_make(rng, i, tiny):
    if i % 5 == 4:
        fco, gco = _q_general(rng)
        kind = "general"
    else:
        fco, gco = (rng.randint(-10**5, 10**5), 0, 1), (1, 0, 0)
        kind = "z2c"
    height = 5 if tiny else Q_HEIGHT
    return Job(kind, len(orc.points_q(height)), {"fco": fco, "gco": gco, "height": height})


def _q_run(lib, job):
    a = job.args
    phi = lib.ratmap.make_map(lib.QQ, a["fco"], a["gco"])
    res = lib.dynamics.preperiodic_search(phi, a["height"])
    places = [lib.fields.archimedean_place()] + sorted(
        lib.ratmap.bad_places(phi), key=lambda pl: pl.sort_key()
    )
    S = lib.fields.place_set(lib.QQ, places)
    ctx = lib.bounds.BoundContext(0, 1, S.size)
    checks = [lib.bounds.verify_report(r, phi, ctx, S) for r in res.preperiodic]
    return res, checks, S


def _pt_q(pt):
    return (pt.x, pt.y)


def _q_check(job, outputs):
    res, checks, S = outputs
    a = job.args
    fco, gco = a["fco"], a["gco"]
    points = orc.points_q(a["height"])
    pre = {_pt_q(r.start): r for r in res.preperiodic}
    und = {_pt_q(pt) for pt in res.undecided}
    if res.scanned != len(points):
        return f"scanned {res.scanned} points, expected {len(points)}"
    if len(pre) + len(und) + res.divergent != res.scanned or len(pre) != len(res.preperiodic):
        return "scanned points are not split into exactly one class each"
    if (set(pre) | und) - set(points) or set(pre) & und:
        return "classes overlap or hold points outside the scan"

    def step(pt):
        return orc.canon_q(orc.eval_form_q(fco, *pt), orc.eval_form_q(gco, *pt))

    if job.kind == "z2c":
        # Over Z[c], a non-integer point has growing denominators and an
        # integer |z| > (1 + sqrt(1 + 4|c|))/2 grows in absolute value:
        # only infinity and small integers can be preperiodic.
        radius = (1 + math.isqrt(1 + 4 * abs(fco[0]))) // 2 + 1
        candidates = [pt for pt in points if pt[1] == 0 or (pt[1] == 1 and abs(pt[0]) <= radius)]
    else:
        candidates = points
    truth = {}
    for pt in candidates:
        orbit = orc.orbit_q(fco, gco, pt, Q_HEIGHT_CAP, 2000)
        if orbit is not None:
            truth[pt] = orbit
    for pt, (tail, cycle) in truth.items():
        r = pre.get(pt)
        if r is None:
            return f"preperiodic point {pt} lost"
        if [_pt_q(q) for q in r.tail] != tail or [_pt_q(q) for q in r.cycle] != cycle:
            return f"wrong tail/cycle for {pt}"
    for pt, r in pre.items():
        if pt not in truth:
            bad = _check_report_chain(step, [_pt_q(q) for q in r.tail], [_pt_q(q) for q in r.cycle])
            if bad:
                return f"point {pt} added: {bad}"
    # S is the archimedean place plus the primes dividing the resultant
    res_q = orc.form_resultant(orc.RationalField(), fco, gco)
    bad_primes = orc.prime_factors(abs(res_q.numerator))
    if sorted(pl.payload for pl in S.places if pl.kind == "prime") != bad_primes:
        return "bad places differ from the primes dividing the resultant"
    expected = orc.bounds_for(0, 1, S.size)
    for r, report_checks in zip(res.preperiodic, checks):
        names = {c.name: c for c in report_checks}
        want = {"orbit_size": (r.total, expected["eta"]), "cycle_length": (r.n, expected["cycle_bound"])}
        if S.size == 1:
            want["everywhere_good_cycle"] = (r.n, 3)
            want["everywhere_good_orbit"] = (r.total, 12)
        if set(names) != set(want):
            return "verify_report ran the wrong set of checks"
        for name, (obs, bound) in want.items():
            c = names[name]
            if (c.observed, c.bound, c.passed) != (obs, bound, obs <= bound):
                return f"bound check {name} is wrong"
    return "ok"


Q_SWEEP = Workload(
    "q_sweep",
    "the paper's Corollary-3 sweep: orbit -> apply_map over Z -> point_from_raw, "
    "no fppoly or residue work (bypass for F_p[t] and residue-field changes)",
    "points",
    90.0,
    _q_make,
    _q_run,
    _q_check,
    lambda job, out: (out[0].scanned, len(out[0].undecided)),
)


# ---------------------------------------------------------------------------
# fpt_search: one start point's orbit over F_2(t) or F_3(t)


def _fpt_make(rng, i, tiny):
    p = 2 if i % 2 == 0 else 3
    d = 2 + (i // 2) % 2
    shaped = i % 5 == 4  # [F : u*Y^d]: the escape criterion applies
    while True:
        if shaped:
            fco = [_rand_poly(rng, p, 3) for _ in range(d)] + [(1,)]
            gco = [(1,)] + [()] * d
        else:
            fco = [_rand_poly(rng, p, 1) for _ in range(d + 1)]
            gco = [_rand_poly(rng, p, 1) for _ in range(d + 1)]
            if sum(1 for c in gco if c) < 2 or not fco[d]:
                continue
        if _ff_nondegenerate(p, fco, gco):
            break
    while True:
        x, y = _rand_poly(rng, p, 2 if p == 2 else 1), _rand_poly(rng, p, 2 if p == 2 else 1)
        if (x or y) and orc.pgcd(p, x, y) == (1,):
            x, y = orc.canon_ff(p, x, y)
            break
    # distinct maps, so that no job finds its resultant in the cache
    return Job(f"F{p}d{d}" + ("s" if shaped else ""), 1,
               {"p": p, "fco": tuple(fco), "gco": tuple(gco), "x": x, "y": y},
               key=(p, tuple(fco), tuple(gco)))


def _fpt_run(lib, job):
    a = job.args
    F = lib.fields.function_field(a["p"])
    phi = lib.ratmap.make_map(F, a["fco"], a["gco"])
    return lib.dynamics.orbit(phi, lib.projective.point_from_raw(F, a["x"], a["y"]))


def _fpt_check(job, outcome):
    a = job.args
    p, fco, gco = a["p"], a["fco"], a["gco"]
    start = (a["x"], a["y"])
    pt = lambda q: (q.x, q.y)  # noqa: E731
    if pt(outcome.start) != start:
        return "orbit reported for a different start point"
    if hasattr(outcome, "cycle"):
        tail, cycle = [pt(q) for q in outcome.tail], [pt(q) for q in outcome.cycle]
        truth = orc.orbit_ff(p, fco, gco, start, 10**6, len(tail) + len(cycle))
        if truth != (tail, cycle):
            return "preperiodic report disagrees with the independent orbit"
        return "ok"
    truth = orc.orbit_ff(p, fco, gco, start, FF_ORACLE_DEGREE, 2000)
    if truth is not None:
        return "preperiodic point lost"
    return "ok"


FPT_SEARCH = Workload(
    "fpt_search",
    "preperiodic search over F_2(t) and F_3(t): most orbits reach the degree-200 cap, "
    "so fppoly pmul/pdivmod/pgcd on degree 100-400 polynomials dominate",
    "points",
    55.0,
    _fpt_make,
    _fpt_run,
    _fpt_check,
    lambda job, out: (1, int(not hasattr(out, "cycle") and not out.divergent)),
    # long-list arithmetic tracks this workload's drift; allocation-heavy work drifts more
    probe_parts=("arith", "poly"),
)


# ---------------------------------------------------------------------------
# residue_graphs: functional graphs on P^1 of prime and extension fields

# ("Q", base, d): a prime just above base, a degree-d map over Q;
# ("F", p, k): a place of degree k of F_p(t); ("fos", p, k): field_of_size(p^k).
# Sizes are fixed per slot so that every seed gets the same mix of costs;
# the three costliest slots are alike, so the 90th percentile falls among
# jobs of one size.
_GRAPH_SLOTS = (
    ("Q", 400, 2), ("F", 2, 8), ("Q", 2000, 3), ("F", 3, 5), ("Q", 20000, 2),
    ("Q", 5000, 2), ("F", 2, 9), ("Q", 9000, 3), ("fos", 3, 5), ("F", 3, 6),
    ("Q", 1200, 2), ("F", 2, 7), ("Q", 20000, 2), ("fos", 5, 3), ("F", 3, 4),
    ("Q", 6000, 3), ("F", 2, 8), ("Q", 20000, 2), ("fos", 2, 8), ("F", 2, 9),
)
_TINY_GRAPH_SLOTS = (("Q", 100, 2), ("F", 2, 5), ("fos", 3, 3), ("F", 3, 3), ("Q", 150, 3))


def _planted_q(rng, d):
    """z^d + c over Q with a planted rational cycle; infinity is fixed too."""
    if d == 2:
        b = rng.randint(1, 10**4) * rng.choice((1, -1))
        # z^2 + c with c = -(b^2 + b + 1) has the 2-cycle {b, -b - 1}
        return (-(b * b + b + 1), 0, 1), (1, 0, 0), [((b, 1), 2), ((1, 0), 1)]
    a = rng.randint(2, 10**4) * rng.choice((1, -1))
    fco = (a - a**d,) + (0,) * (d - 1) + (1,)
    return fco, (1,) + (0,) * d, [((a, 1), 1), ((1, 0), 1)]


def _planted_ff(rng, p, max_deg=2):
    """z^d + (a - a^d) over F_p(t): a is a fixed point, and so is infinity."""
    d = 3 if p == 2 else 2
    while True:
        a = _rand_poly(rng, p, max_deg)
        if len(a) >= 2:
            break
    ad = (1,)
    for _ in range(d):
        ad = orc.pmul(p, ad, a)
    fco = (orc.psub(p, a, ad),) + ((),) * (d - 1) + ((1,),)
    return fco, ((1,),) + ((),) * d, [((a, (1,)), 1), (((1,), ()), 1)]


def _graph_make(rng, i, tiny):
    slots = _TINY_GRAPH_SLOTS if tiny else _GRAPH_SLOTS
    kind, a, b = slots[i % len(slots)]
    if kind == "Q":
        prime = orc.next_prime(a + rng.randrange(a // 16))
        fco, gco, planted = _planted_q(rng, b)
        return Job("Q", prime + 1, {"prime": prime, "fco": fco, "gco": gco, "planted": tuple(planted)},
                   key=(0, fco))
    if kind == "F":
        pi = orc.random_irreducible(rng, a, b)
        fco, gco, planted = _planted_ff(rng, a, 8)
        return Job(f"F{a}", a**b + 1,
                   {"p": a, "pi": pi, "fco": fco, "gco": gco, "planted": tuple(planted)}, key=(a, fco))
    q = a**b
    d = 2 + b % 2
    fco = tuple(rng.randrange(q) for _ in range(d)) + (rng.randrange(1, q),)
    return Job("fos", q + 1, {"q": q, "p": a, "fco": fco, "gco": (1,) + (0,) * d})


def _graph_run(lib, job):
    a = job.args
    if job.kind == "fos":
        rf = lib.residue.field_of_size(a["q"])
        psi = lib.ratmap.ReducedMap(rf, a["fco"], a["gco"])
        return lib.dynamics.functional_graph(psi), rf.modulus, []
    if job.kind == "Q":
        field = lib.QQ
        place = lib.fields.prime_place(a["prime"])
    else:
        field = lib.fields.function_field(a["p"])
        place = lib.fields.irreducible_place(field, a["pi"])
    phi = lib.ratmap.make_map(field, a["fco"], a["gco"])
    g = lib.dynamics.functional_graph(lib.ratmap.reduce_map(phi, place))
    verdicts = [
        lib.dynamics.check_period_relation(phi, lib.projective.point_from_raw(field, *pt), n, place)
        for pt, n in a["planted"]
    ]
    return g, None, verdicts


def _reduced(a):
    """The residue field of a job's place and the map's reduced forms."""
    if "prime" in a:
        P = a["prime"]
        return orc.PrimeField(P), [c % P for c in a["fco"]], [c % P for c in a["gco"]]
    p, pi = a["p"], a["pi"]
    red = [[orc.code_of(p, orc.pmod(p, c, pi)) for c in a[k]] for k in ("fco", "gco")]
    return orc.field_for(p, pi), *red


def _graph_mismatch(fld, fco, gco, successors, cycles, tail_depth):
    """Compare a functional graph with direct evaluation; None when equal."""
    succ = orc.successors(fld, fco, gco)
    if list(successors) != succ:
        return "successor table differs from direct evaluation"
    want_cycles, want_depth = orc.graph_structure(succ)
    if orc.canonical_cycles(cycles) != want_cycles or list(tail_depth) != want_depth:
        return "cycle/tail decomposition differs"
    return None


def _graph_check(job, outputs):
    g, modulus, verdicts = outputs
    a = job.args
    if job.kind == "fos":
        p = a["p"]
        if modulus is None or p ** (len(modulus) - 1) != a["q"] or not orc.is_irreducible(p, modulus):
            return "field_of_size returned a wrong modulus"
        fld, fco, gco = orc.field_for(p, modulus), a["fco"], a["gco"]
    else:
        fld, fco, gco = _reduced(a)
    if g.rfield.q != fld.q:
        return "residue field of the wrong size"
    bad = _graph_mismatch(fld, fco, gco, g.successors, g.cycles, g.tail_depth)
    if bad:
        return bad
    succ = list(g.successors)
    for (pt, n), v in zip(a.get("planted", ()), verdicts):
        bad = _check_verdict(job, fld, fco, succ, pt, n, v)
        if bad:
            return bad
    return "ok"


def _reduce_code(job, pt):
    a = job.args
    x, y = pt
    if job.kind == "Q":
        P = a["prime"]
        return P if y % P == 0 else x * pow(y, -1, P) % P
    p, pi = a["p"], a["pi"]
    q = p ** (len(pi) - 1)
    xr, yr = orc.pmod(p, x, pi), orc.pmod(p, y, pi)
    if not yr:
        return q
    return orc.code_of(p, orc.pmod(p, orc.pmul(p, xr, _pinv(p, yr, pi)), pi))


def _pinv(p, a, m):
    """Inverse of a modulo the irreducible m (a^(q-2))."""
    return orc.ppow_mod(p, a, p ** (len(m) - 1) - 2, m)


def _check_verdict(job, fld, fco, succ, pt, n, v):
    """The period relation verdict against the reduced cycle found by the oracle."""
    q = fld.q
    start = _reduce_code(job, pt)
    seen = []
    u = start
    while u not in seen:
        seen.append(u)
        u = succ[u]
    cycle = seen[seen.index(u):]
    m = len(cycle)
    # multiplier of the reduced cycle: product of F'(z) (G = Y^d); 0 at infinity
    lam = fld.one
    deriv = [fld.mul(c, i % fld.p) for i, c in enumerate(fco)][1:]
    for z in cycle:
        if z == q:
            lam = 0
            break
        acc = 0
        for c in reversed(deriv):
            acc = fld.add(fld.mul(acc, z), c)
        lam = fld.mul(lam, acc)
    r = math.inf if lam == 0 else fld.order(lam)
    char = job.args["prime"] if job.kind == "Q" else job.args["p"]
    if (v.n, v.m, v.r) != (n, m, r):
        return f"period data (n, m, r) = {(v.n, v.m, v.r)}, expected {(n, m, r)}"
    if n == m:
        case = "i"
    elif r != math.inf and n == m * r:
        case = "ii"
    elif r != math.inf and n % (m * r) == 0 and _is_power(n // (m * r), char):
        case = "iii"
    else:
        case = "violation"
    if v.case != case or case == "violation":
        return f"period relation case {v.case}, expected {case}"
    return None


def _is_power(k, base):
    if k < base:
        return False
    while k % base == 0:
        k //= base
    return k == 1


def _graph_warm(lib):
    lib.fppoly.enumerate_monic_irreducibles(2, 11)
    lib.fppoly.enumerate_monic_irreducibles(3, 6)


RESIDUE_GRAPHS = Workload(
    "residue_graphs",
    "functional graphs on P^1(F_q) for prime q <= 10^5 and extension fields from places of "
    "F_2(t), F_3(t) and field_of_size: ResidueField arithmetic and ReducedMap.apply dominate",
    "nodes",
    20.0,
    _graph_make,
    _graph_run,
    _graph_check,
    lambda job, out: (0, 0),
    _graph_warm,
)


# ---------------------------------------------------------------------------
# analyze_mix: one-shot in-process CLI calls

# six cheap calls, seven alike around the median, four costlier, three alike at the top
_MIX_SLOTS = (
    "analyze_q_big", "bounds", "analyze_q_mid", "orbit_q", "analyze_ff",
    "analyze_q_mid", "sunit", "analyze_q_mid", "graph_ff", "analyze_q_big",
    "analyze_q_mid", "orbit_ff", "graph_huge", "analyze_q_mid", "analyze_q_rand",
    "analyze_q_mid", "analyze_q_big", "analyze_ff_rand", "analyze_q_mid", "graph_small",
)
_TINY_MIX_SLOTS = (
    "analyze_q_mid", "bounds", "orbit_q", "analyze_ff", "graph_small", "sunit",
    "analyze_q_rand", "graph_huge", "orbit_ff", "analyze_ff_rand", "graph_ff",
)


def _mix_make(rng, i, tiny):
    slots = _TINY_MIX_SLOTS if tiny else _MIX_SLOTS
    kind = slots[i % len(slots)]
    return Job(kind, 1, _MIX_MAKERS[kind](rng, tiny))


def _mk_analyze_q(rng, d, structured):
    fco = [rng.randint(-9, 9) for _ in range(d)] + [1]
    if structured:
        # G = b*X*Y^(d-1): Res(F, G) = +-b^d*F(0,1) factors easily
        fco[0] = rng.choice([c for c in range(-9, 10) if c])
        gco = [0] * (d + 1)
        gco[1] = rng.randint(11, 29)
    else:
        while True:
            gco = [rng.randint(-9, 9) for _ in range(d + 1)]
            P = 2**61 - 1
            if any(gco[1:]) and orc.form_resultant(orc.PrimeField(P), [c % P for c in fco], [c % P for c in gco]):
                break
    return {"field": 0, "fco": tuple(fco), "gco": tuple(gco)}


def _mk_analyze_ff(rng, structured, tiny):
    p = rng.choice((2, 3))
    while True:
        if structured:
            # G = b*Y^(d-k)*prod(X - c_i*Y) with constants c_i: the resultant
            # is b^d times values F(c_i, 1) of t-degree <= M
            d, M = (6, 1) if tiny else (14, 2)
            fco = [_rand_poly(rng, p, M) for _ in range(d)] + [(1,)]
            roots = [rng.randrange(p) for _ in range(rng.randint(1, d // 2))]
            lin = (1,)
            for c in roots:
                lin = orc.pmul(p, lin, (-c % p, 1))
            b = _rand_poly(rng, p, 2) or (1,)
            gco = [orc.pmul(p, b, (lin[j],) if j < len(lin) and lin[j] else ()) for j in range(d + 1)]
            if all(_ff_value(p, fco, c) for c in roots):
                break
        else:
            d, M = rng.choice(((3, 2), (4, 2), (4, 1), (5, 1))) if p == 2 else rng.choice(((3, 2), (4, 1)))
            fco = [_rand_poly(rng, p, M) for _ in range(d)] + [(1,)]
            gco = [_rand_poly(rng, p, M) for _ in range(d + 1)]
            if sum(1 for c in gco if c) >= 2 and _ff_nondegenerate(p, fco, gco):
                break
    return {"field": p, "fco": tuple(fco), "gco": tuple(gco)}


def _mk_bounds(rng, tiny):
    p = rng.choice((0, 0, 2, 3, 5, 7, 11, 13))
    return {"p": p, "D": rng.randint(1, 4), "s": rng.randint(1, 8)}


def _mk_sunit(rng, tiny):
    primes = sorted(rng.sample((2, 3, 5, 7, 11, 13), 2))
    cap = 2 if tiny else 3
    a = Fraction(rng.choice([c for c in range(-6, 7) if c]), rng.randint(1, 3))
    b = Fraction(rng.choice([c for c in range(-6, 7) if c]), rng.randint(1, 3))
    return {"primes": tuple(primes), "cap": cap, "a": str(a), "b": str(b)}


def _mk_orbit_q(rng, tiny):
    if rng.random() < 0.5:
        a = rng.randint(2, 10**6) * rng.choice((1, -1))
        # z^2 + (a - a^2): -a -> a, a fixed point
        return {"fco": (a - a * a, 0, 1), "gco": (1, 0, 0), "start": (-a, 1)}
    c = Fraction(rng.randint(-200, 200), rng.choice((1, 4, 16)))
    start = orc.canon_q(rng.randint(-40, 40), rng.randint(1, 8))
    return {"fco": (c.numerator, 0, c.denominator), "gco": (c.denominator, 0, 0), "start": start}


def _mk_orbit_ff(rng, tiny):
    p = rng.choice((2, 3))
    fco, gco, planted = _planted_ff(rng, p, 6)
    x, y = planted[0][0]
    if p == 3:
        x = orc.psub(p, (), x)  # -a maps to the fixed point a
    return {"p": p, "fco": fco, "gco": gco, "start": (x, y)}


def _mk_graph_small(rng, tiny):
    fco, gco, _ = _planted_q(rng, 2)
    base = 100 if tiny else 6000
    return {"prime": orc.next_prime(base + rng.randrange(base // 16)), "fco": fco, "gco": gco}


def _mk_graph_huge(rng, tiny):
    fco, gco, _ = _planted_q(rng, 2)
    base = 10**9 if tiny else 4 * 10**11
    return {"prime": orc.next_prime(base + rng.randrange(base // 16)), "fco": fco, "gco": gco}


def _mk_graph_ff(rng, tiny):
    p = rng.choice((2, 3))
    fco, gco, _ = _planted_ff(rng, p, 6)
    return {"p": p, "pi": orc.random_irreducible(rng, p, rng.randint(3, 8 if p == 2 else 5)),
            "fco": fco, "gco": gco}


_MIX_MAKERS = {
    "analyze_q_big": lambda rng, tiny: _mk_analyze_q(rng, 12 if tiny else 56, True),
    "analyze_q_mid": lambda rng, tiny: _mk_analyze_q(rng, 8 if tiny else 24, True),
    "analyze_q_rand": lambda rng, tiny: _mk_analyze_q(rng, 10, False),
    "analyze_ff": lambda rng, tiny: _mk_analyze_ff(rng, True, tiny),
    "analyze_ff_rand": lambda rng, tiny: _mk_analyze_ff(rng, False, tiny),
    "bounds": _mk_bounds,
    "sunit": _mk_sunit,
    "orbit_q": _mk_orbit_q,
    "orbit_ff": _mk_orbit_ff,
    "graph_small": _mk_graph_small,
    "graph_huge": _mk_graph_huge,
    "graph_ff": _mk_graph_ff,
}


def _field_token(p):
    return "Q" if p == 0 else f"Fp:{p}"


def mix_argv(job) -> list[str]:
    a, kind = job.args, job.kind
    if kind.startswith("analyze"):
        text = map_text_q if a["field"] == 0 else map_text_ff
        return ["analyze", "--field", _field_token(a["field"]), text(a["fco"], a["gco"]), "--json"]
    if kind == "bounds":
        return ["bounds", "--char", str(a["p"]), "--degree", str(a["D"]), "--s", str(a["s"]), "--json"]
    if kind == "sunit":
        S = ";".join(["inf"] + [f"p:{q}" for q in a["primes"]])
        return ["sunit-solve", "--field", "Q", f"--a={a['a']}", f"--b={a['b']}", "--S", S,
                "--cap", str(a["cap"]), "--json"]
    if kind == "orbit_q":
        x, y = a["start"]
        return ["orbit", "--field", "Q", map_text_q(a["fco"], a["gco"]), f"--point=[{x} : {y}]", "--json"]
    if kind == "orbit_ff":
        x, y = a["start"]
        return ["orbit", "--field", f"Fp:{a['p']}", map_text_ff(a["fco"], a["gco"]),
                f"--point=[{orc.poly_str(x)} : {orc.poly_str(y)}]", "--json"]
    if kind in ("graph_small", "graph_huge"):
        return ["graph", "--field", "Q", map_text_q(a["fco"], a["gco"]), "--place", f"p:{a['prime']}", "--json"]
    if kind == "graph_ff":
        return ["graph", "--field", f"Fp:{a['p']}", map_text_ff(a["fco"], a["gco"]),
                "--place", "pi:" + ",".join(map(str, a["pi"])), "--json"]
    raise ValueError(kind)


def _mix_run(lib, job):
    return capture_cli(lib, mix_argv(job))


def _mix_check(job, outputs):
    rc, out, err = outputs
    if rc == 2 and _error_kind(err) == "BudgetExceededError":
        if job.kind in ("analyze_q_rand", "graph_huge"):
            return "refused"
        return "unexpected refusal: " + err.strip()[:120]
    if job.kind == "orbit_q" or job.kind == "orbit_ff":
        if rc not in (0, 2):
            return f"exit code {rc}: {err.strip()[:120]}"
        result = json.loads(out)["result"]
        bad = _check_orbit_json(job, result)
        if bad:
            return bad
        return "refused" if rc == 2 else "ok"
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:120]}"
    result = json.loads(out)["result"]
    kind = job.kind
    if kind.startswith("analyze"):
        return _check_analyze(job, result) or "ok"
    if kind == "bounds":
        a = job.args
        want = orc.bounds_for(a["p"], a["D"], a["s"])
        got = {k: int(v) for k, v in result.items()}
        return "ok" if got == want else "bound values differ"
    if kind == "sunit":
        return _check_sunit(job, result) or "ok"
    if kind == "graph_huge":
        return "graph answered beyond its node budget"
    return _check_graph_json(job, result) or "ok"


def _check_orbit_json(job, result):
    a = job.args
    if job.kind == "orbit_q":
        parse = orc.parse_point_q
        truth = orc.orbit_q(a["fco"], a["gco"], a["start"], Q_HEIGHT_CAP, 2000)
    else:
        p = a["p"]
        parse = lambda s: orc.parse_point_ff(p, s)  # noqa: E731
        truth = orc.orbit_ff(p, a["fco"], a["gco"], orc.canon_ff(p, *a["start"]), FF_ORACLE_DEGREE, 2000)
    if result["undecided"] or result["divergent"]:
        return "preperiodic point lost" if truth is not None else None
    tail = [parse(s) for s in result["tail"]]
    cycle = [parse(s) for s in result["cycle"]]
    if truth is None or (tail, cycle) != (list(truth[0]), list(truth[1])):
        return "orbit report disagrees with the independent orbit"
    return None


def _check_analyze(job, result):
    a = job.args
    p, fco, gco = a["field"], a["fco"], a["gco"]
    d = len(fco) - 1
    if p == 0:
        if result["map"]["F"] != [str(c) for c in fco] or result["map"]["G"] != [str(c) for c in gco]:
            return "normalized map differs from the input"
        res = int(result["resultant"])
        for P in (2**61 - 1, 2**31 - 1, orc.next_prime(10**12 + sum(fco) % 1000)):
            fld = orc.PrimeField(P)
            if orc.form_resultant(fld, [c % P for c in fco], [c % P for c in gco]) != res % P:
                return f"resultant differs modulo {P}"
        if d <= 10:
            job.deferred.append(lambda: orc.sympy_resultant(fco, gco) in (None, res))
        bad = []
        for tok in result["bad_places"]:
            q = int(tok[2:])
            if not orc.is_prime(q) or res % q:
                return f"bad place {tok} is not a prime dividing the resultant"
            bad.append(q)
        rest = abs(res)
        for q in bad:
            rest //= q ** orc.ordinal(rest, q)
        if rest != 1:
            return "bad places miss a prime factor of the resultant"
        s = len(bad) + 1
    else:
        if result["map"]["F"] != [",".join(map(str, c)) or "0" for c in fco] or \
                result["map"]["G"] != [",".join(map(str, c)) or "0" for c in gco]:
            return "normalized map differs from the input"
        res = orc.parse_poly(p, result["resultant"])
        for k in ((7, 9) if p == 2 else (5, 6)):
            pi = orc.random_irreducible(_seeded(fco, k), p, k)
            fld = orc.field_for(p, pi)
            red = lambda co: [orc.code_of(p, orc.pmod(p, c, pi)) for c in co]  # noqa: E731
            if orc.form_resultant(fld, red(fco), red(gco)) != orc.code_of(p, orc.pmod(p, res, pi)):
                return f"resultant differs modulo {orc.poly_str(pi)}"
        rest = orc.pmonic(p, res)
        has_inf = False
        nbad = 0
        for tok in result["bad_places"]:
            if tok == "inf":
                has_inf = True
                continue
            pi = tuple(int(c) for c in tok[3:].split(","))
            if not orc.is_irreducible(p, pi) or orc.pmod(p, res, pi):
                return f"bad place {tok} is not an irreducible dividing the resultant"
            while not orc.pmod(p, rest, pi):
                rest = orc.pdivmod(p, rest, pi)[0]
            nbad += 1
        if rest != (1,):
            return "bad places miss a factor of the resultant"
        M = max(len(c) - 1 for c in fco + gco)
        if has_inf != (len(res) - 1 < 2 * d * M):
            return "infinite place classified wrongly"
        s = nbad + 1
    if result["good_reduction_everywhere"] != (not result["bad_places"]):
        return "good_reduction_everywhere flag is wrong"
    want = orc.bounds_for(p, 1, s)
    if int(result["bounds"]["eta"]) != want["eta"] or int(result["bounds"]["cycle_bound"]) != want["cycle_bound"]:
        return "bounds differ"
    return None


def _seeded(fco, k):
    return random.Random(zlib.crc32(f"{fco!r}/{k}".encode()))


def _check_sunit(job, result):
    a = job.args
    A, B = Fraction(a["a"]), Fraction(a["b"])
    want = orc.sunit_solutions_q(A, B, a["primes"], a["cap"])
    got = {(Fraction(x), Fraction(y)) for x, y in result["solutions"]}
    if got != want or result["count"] != len(want):
        return f"S-unit solutions differ ({len(got)} vs {len(want)})"

    def is_unit(v):
        rest = abs(v)
        for q in a["primes"]:
            rest /= Fraction(q) ** (orc.ordinal(rest.numerator, q) - orc.ordinal(rest.denominator, q))
        return rest == 1

    trivial = is_unit(A) and is_unit(B)
    if result["s_trivial"] != trivial:
        return "S-triviality is wrong"
    bound = None if trivial else 2 ** (8 * (2 * len(a["primes"]) + 1))
    if (result["bound"] and int(result["bound"])) != bound:
        return "solution-count bound is wrong"
    if not trivial and result["within_bound"] is not (len(want) <= bound):
        return "within_bound flag is wrong"
    return None


def _check_graph_json(job, result):
    return _graph_mismatch(*_reduced(job.args), result["successors"], result["cycles"], result["tail_depth"])


def _mix_points(job, outputs):
    if not job.kind.startswith("orbit"):
        return 0, 0
    return 1, int(json.loads(outputs[1])["result"]["undecided"])


def _mix_warm(lib):
    lib.fppoly.enumerate_monic_irreducibles(2, 10)
    lib.fppoly.enumerate_monic_irreducibles(3, 6)


ANALYZE_MIX = Workload(
    "analyze_mix",
    "cold one-shot CLI calls (analyze at high degree, bounds, sunit-solve, orbit, graph at "
    "primes to 10^12): Bareiss resultants, factorization, primality, bounds and S-units",
    "calls",
    22.0,
    _mix_make,
    _mix_run,
    _mix_check,
    lambda job, out: _mix_points(job, out),
    _mix_warm,
)

WORKLOADS = {wl.name: wl for wl in (Q_SWEEP, FPT_SEARCH, RESIDUE_GRAPHS, ANALYZE_MIX)}
