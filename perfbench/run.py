"""arithdyn benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload q_sweep --seed 1 --seconds 15 --trace 0

Imports the library from ../src, builds the workload's jobs from the
seed, runs them one at a time in this process for --seconds of job time,
checks every answer against an independent oracle, and prints a table
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run (see README.md).  --tiny shrinks every input for
the benchmark's own tests.  --robustness runs the known unbudgeted
inputs in subprocesses with a short time limit instead of a workload.
Result files and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans as tr  # noqa: E402
import oracles as orc  # noqa: E402
import workloads as wls  # noqa: E402

SETUP_REPS = 5
WARM_JOBS = 4
PROBE_EVERY_S = 0.25  # job time between two speed probes
MODULES = ("cli", "parsing", "dynamics", "ratmap", "projective", "fppoly",
           "residue", "fields", "bounds", "sunit", "errors")
END_TO_END_UNITS = {"work_per_s": "1/s", "job_p50_s": "s", "job_p90_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
RATIO_UNITS = {"failed_ratio": "ratio", "refused_ratio": "ratio", "undecided_ratio": "ratio"}
# unknown inputs that run far beyond one job's share of a run (see README.md)
UNBUDGETED = (
    ("graph", "--field", "Q", "z^2", "--place", "p:1000000000000000003"),
    ("analyze", "--field", "Q", "z^99999+1"),
)


class MissingInput(Exception):
    """The checkout lacks the library or BENCHMARK.json."""


def import_library() -> SimpleNamespace:
    """A fresh import of arithdyn from ROOT/src (earlier imports are dropped)."""
    src = ROOT / "src"
    if not (src / "arithdyn" / "__init__.py").is_file():
        raise MissingInput(f"no arithdyn package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "arithdyn" or m.startswith("arithdyn.")]:
        del sys.modules[name]
    pkg = importlib.import_module("arithdyn")
    if Path(pkg.__file__).resolve().parent != (src / "arithdyn").resolve():
        raise MissingInput(f"arithdyn imported from {pkg.__file__}, not from {src}")
    lib = SimpleNamespace(pkg=pkg, QQ=pkg.QQ)
    lib.modules = {"arithdyn": pkg}
    for name in MODULES:
        mod = importlib.import_module(f"arithdyn.{name}")
        setattr(lib, name, mod)
        lib.modules[name] = mod
    return lib


class _Pt:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


_PROBE_POINTS = tuple((x, y) for y in range(1, 9) for x in range(-8, 9) if math.gcd(x, y) == 1)[:60]


def _probe_arith():
    a, b, p = list(range(1, 61)), list(range(7, 67)), 10007
    for _ in range(6):
        out = [0] * 119
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p


def _probe_alloc():
    p, seen = 10007, {}
    for s in range(30):
        x = s * 7919 % p
        pts = []
        for _ in range(40):
            x = (x * x + 3) % p
            t = tuple(x * k % p for k in range(1, 6))
            pts.append(_Pt(t, x))
            seen[t] = len(pts)


def _probe_orbit():
    for _ in range(2):
        for pt in _PROBE_POINTS:
            orc.orbit_q((3, 0, 4), (4, 0, 0), pt, 10**40, 50)


def _probe_poly():
    f, g = tuple(range(1, 40)), tuple(range(3, 45))
    for _ in range(12):
        orc.pdivmod(3, orc.pmul(3, f, g), (1, 2, 0, 1, 1))


# fixed pure-Python work that uses no arithdyn code, with its duration at
# the reference speed: small-int arithmetic; tuples, dicts and objects;
# exact orbits with big ints and gcds; polynomial products and remainders
PROBE_PARTS = {
    "arith": (_probe_arith, 0.0020),
    "alloc": (_probe_alloc, 0.0021),
    "orbit": (_probe_orbit, 0.0037),
    "poly": (_probe_poly, 0.0029),
}


class SpeedProbe:
    """Tracks how fast this machine runs Python right now.

    On a shared machine the speed of one core drifts by tens of percent
    within seconds.  The probe times some of PROBE_PARTS before the jobs
    and after every PROBE_EVERY_S of job time; each workload names the
    parts whose drift follows its own.  A job's time is multiplied by
    `factor_at` its midpoint: the parts' reference time over the median of
    the nearest probe durations.  Scaled times are in seconds of a machine
    at the reference speed; they move with the program, not with the
    neighbours.
    """

    def __init__(self, parts=tuple(PROBE_PARTS)):
        self.parts = [PROBE_PARTS[name][0] for name in parts]
        self.ref = sum(PROBE_PARTS[name][1] for name in parts)
        self.samples: list[tuple[float, float]] = []  # (job time so far, probe seconds)
        self.due = 0.0

    def sample(self, busy: float = 0.0):
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        self.samples.append((busy, time.perf_counter() - t0))

    def after_job(self, busy: float):
        if busy >= self.due:
            self.sample(busy)
            self.due = busy + PROBE_EVERY_S

    def factor_at(self, busy: float, k: int = 5) -> float:
        near = sorted(self.samples, key=lambda s: abs(s[0] - busy))[:k]
        return self.ref / statistics.median(d for _, d in near)

    def factor(self) -> float:
        return self.ref / statistics.median(d for _, d in self.samples)


def setup(wl, seed: int, count: int, tiny: bool):
    """Import, input generation and warm-up; returns (lib, jobs, seconds taken)."""
    t0 = time.perf_counter()
    lib = import_library()
    taken: set = set()
    warm_jobs = wls.generate(wl, random.Random(f"warm/{wl.name}"), WARM_JOBS, tiny, taken)
    jobs = wls.generate(wl, random.Random(f"{wl.name}/{seed}"), count, tiny, taken)
    if wl.warm is not None:
        wl.warm(lib)
    for job in warm_jobs:
        wl.run(lib, job)
    return lib, jobs, time.perf_counter() - t0


def run_job(lib, wl, job):
    """(seconds, outputs, status); status None means "check the outputs"."""
    t0 = time.perf_counter()
    try:
        outputs, status = wl.run(lib, job), None
    except lib.errors.BudgetExceededError:
        outputs, status = None, "refused"
    except Exception:  # a crash of the program under test is a failed job
        outputs, status = None, "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return time.perf_counter() - t0, outputs, status


def check_job(wl, job, outputs, status):
    if status is not None:
        return status
    try:
        return wl.check(job, outputs)
    except Exception:  # a malformed answer the checker cannot read
        return "check raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]


def run_jobs(lib, wl, jobs, probe, seconds=None, tracer=None, check=True):
    """Run jobs in order (until `seconds` of job time when given), checking each."""
    rows = []
    busy = 0.0
    for _ in range(3):
        probe.sample(busy)
    for i, job in enumerate(jobs):
        if seconds is not None and busy >= seconds:
            break
        if tracer is not None:
            tracer.begin_job(i)
        dt, outputs, status = run_job(lib, wl, job)
        if tracer is not None:
            tracer.end_job()
        mid = busy + dt / 2
        busy += dt
        probe.after_job(busy)
        if not check:
            rows.append(SimpleNamespace(seconds=dt, mid=mid))
            continue
        verdict = check_job(wl, job, outputs, status)
        answered = outputs is not None and verdict in ("ok", "refused")
        points, undecided = wl.points(job, outputs) if answered else (0, 0)
        rows.append(SimpleNamespace(job=job, seconds=dt, mid=mid, verdict=verdict,
                                    points=points, undecided=undecided))
    return rows


def run_deferred(rows):
    """Checks that load heavy oracles, run after memory has been measured."""
    for r in rows:
        for check in r.job.deferred:
            if r.verdict == "ok" and not check():
                r.verdict = "deferred cross-check failed"


def summarize(rows):
    """Counts and ratios over checked rows."""
    attempted = len(rows)
    failed = [r for r in rows if r.verdict not in ("ok", "refused")]
    refused = sum(1 for r in rows if r.verdict == "refused")
    points = sum(r.points for r in rows)
    return SimpleNamespace(
        attempted=attempted,
        failed=len(failed),
        failures=[(r.job.kind, r.verdict) for r in failed],
        failed_ratio=len(failed) / attempted if attempted else 0.0,
        refused_ratio=refused / attempted if attempted else 0.0,
        undecided_ratio=sum(r.undecided for r in rows) / points if points else 0.0,
    )


def end_to_end(rows, setup_s, probe=None):
    """The end-to-end metrics; with a probe, times are scaled to its reference speed."""
    times = [r.seconds * (probe.factor_at(r.mid) if probe else 1.0) for r in rows]
    work = sum(r.job.work for r in rows if r.verdict in ("ok", "refused"))
    deciles = statistics.quantiles(times, n=10, method="inclusive") if len(times) > 1 else times * 9
    return {
        "work_per_s": work / sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": deciles[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(lib, wl, jobs, per_layer):
    """Per-layer metrics of a traced pass over `jobs`, then an untraced pass."""
    res_raw, bad = lib.ratmap.resultant_raw, lib.ratmap.bad_places
    before = res_raw.cache_info(), bad.cache_info()
    tracer = tr.Tracer()
    traced_probe, untraced_probe = SpeedProbe(wl.probe_parts), SpeedProbe(wl.probe_parts)
    tracer.install(lib)
    try:
        rows = run_jobs(lib, wl, jobs, traced_probe, tracer=tracer)
    finally:
        tracer.uninstall()
    after = res_raw.cache_info(), bad.cache_info()
    factor = traced_probe.factor()
    traced_s = sum(r.seconds * traced_probe.factor_at(r.mid) for r in rows)
    res_raw.cache_clear()
    bad.cache_clear()
    untraced = run_jobs(lib, wl, jobs, untraced_probe, check=False)
    untraced_s = sum(r.seconds * untraced_probe.factor_at(r.mid) for r in untraced)
    records = tracer.records()
    layers = tr.layer_metrics(records)

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    metrics = {}
    for name, unit in per_layer.items():
        if name == "trace.overhead_s":
            value = traced_s - untraced_s
        elif name == "ratmap.resultant_raw.hits":
            value = after[0].hits - before[0].hits
        elif name == "ratmap.resultant_raw.misses":
            value = after[0].misses - before[0].misses
        elif name == "ratmap.bad_places.hits":
            value = after[1].hits - before[1].hits
        elif name in RATIO_UNITS:
            continue
        else:
            func, key = name.rsplit(".", 1)
            value = get(func, key) * (factor if unit == "s" else 1)
        metrics[name] = {"value": value, "unit": unit}
    return rows, metrics, records, factor


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric declared in BENCHMARK.json."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        raise MissingInput(f"no {spec}")
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())["per_layer"]}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def provenance(args, wl, attempted) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "jobs": attempted,
        "work_unit": wl.unit,
    }


def robustness() -> int:
    """Run each unbudgeted input with a 1 s limit; report, never gate."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    report = []
    for argv in UNBUDGETED:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "arithdyn.cli", *argv], env=env, cwd=ROOT,
                                  capture_output=True, timeout=1.0)
            outcome = f"exit {proc.returncode}"
        except subprocess.TimeoutExpired:
            outcome = "timeout"
        report.append({"argv": list(argv), "outcome": outcome, "seconds": time.perf_counter() - t0})
        print(f"{' '.join(argv)}: {outcome}")
    print(json.dumps({"robustness": report}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs for quick self-tests")
    ap.add_argument("--robustness", action="store_true",
                    help="run the known unbudgeted inputs with a 1 s limit instead")
    args = ap.parse_args(argv)
    try:
        per_layer = per_layer_units()
        import_library()
    except MissingInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.robustness:
        return robustness()
    if args.workload is None:
        ap.error("--workload is required")
    wl = wls.WORKLOADS[args.workload]
    if args.tiny:
        count = trace_count = 12
    else:
        # the traced pass takes the jobs an untraced run finishes in about half its time
        trace_count = math.ceil(wl.rate * args.seconds / 2)
        count = max(math.ceil(2 * wl.rate * args.seconds), 20)

    setups, setup_raw = [], []
    for _ in range(SETUP_REPS):
        setup_probe = SpeedProbe(wl.probe_parts)
        for _ in range(3):
            setup_probe.sample()
        lib, jobs, took = setup(wl, args.seed, count, args.tiny)
        for _ in range(3):
            setup_probe.sample()
        setup_raw.append(took)
        setups.append(took * setup_probe.factor())
    setup_s = statistics.median(setups)
    gc.collect()
    gc.freeze()

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    t_start = time.perf_counter()
    if args.trace:
        rows, metrics, records, factor = traced_metrics(lib, wl, jobs[:trace_count], per_layer)
        tr.write_records(OUT / f"spans-{stem}.jsonl", records)
        raw, probe_log = {}, []
    else:
        probe = SpeedProbe(wl.probe_parts)
        rows = run_jobs(lib, wl, jobs, probe, seconds=args.seconds)
        factor = probe.factor()
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end(rows, setup_s, probe).items()}
        raw = end_to_end(rows, statistics.median(setup_raw))
        probe_log = probe.samples
    run_deferred(rows)
    summary = summarize(rows)
    ratios = {k: {"value": getattr(summary, k), "unit": u} for k, u in RATIO_UNITS.items()}
    if args.trace:
        metrics.update((k, v) for k, v in ratios.items() if k in per_layer)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  jobs {summary.attempted}"
          f"  (work unit: {wl.unit}; speed factor {factor:.3f}; {time.perf_counter() - t_start:.1f} s)")
    for name, m in {**metrics, **ratios}.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    for kind, verdict in summary.failures[:10]:
        print(f"FAILED {kind}: {verdict}", file=sys.stderr)

    result = {"correct": summary.failed == 0, "attempted": summary.attempted,
              "failed": summary.failed, "metrics": metrics}
    record = {"provenance": provenance(args, wl, summary.attempted), **result,
              "ratios": ratios, "setup_runs_s": setups, "speed_factor": factor,
              "unscaled_metrics": raw,
              "jobs_by_kind": _jobs_by_kind(rows), "failures": summary.failures[:50],
              "job_log": [[r.job.kind, r.seconds, r.mid] for r in rows],
              "probe_log": probe_log}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps(result))
    return 0


def _jobs_by_kind(rows) -> dict:
    out: dict = {}
    for r in rows:
        k = out.setdefault(r.job.kind, {"jobs": 0, "seconds": 0.0, "refused": 0})
        k["jobs"] += 1
        k["seconds"] += r.seconds
        k["refused"] += r.verdict == "refused"
    return out


if __name__ == "__main__":
    sys.exit(main())
