"""Paired timing of two checkouts in one process, job by job.

    python3 tools/bench_twin.py TREE_A TREE_B --workload q_sweep \\
        [--workload fpt_search ...] [--seed 1] [--jobs 400]

Loads TREE_A/src/arithdyn as the package `arithdyn_a` and TREE_B/src/arithdyn
as `arithdyn_b`; the relative imports resolve inside each copy, and each copy
keeps its own caches.  The jobs are perfbench's: drawn from the seed as
`perfbench/run.py --seed` draws them, and run through each workload's
`run(lib, job)`: the first --jobs of the seed's pool.  Both copies are warmed
on the warm-up jobs first.  Then every job runs once on each copy, and the copy
that runs first alternates from job to job; `time.thread_time` times each run.
What the set-up left is frozen out of the garbage collector (`gc.freeze`, as
perfbench does), and each run starts after a collection, so it pays only for
the collections that its own allocations trigger, not for the other side's.

For each workload the script prints the geometric mean of the per-job ratios
B/A with a 95 % interval (normal, over the log ratios), the jobs and the
seconds of both sides.  It then runs the same jobs with TREE_B loaded under
both names, a fresh copy each, and prints that A/A row, the noise floor of the
method.  A refused job (BudgetExceededError) is timed like any other.  The
copies share one process, so peak RSS and set-up time cannot be compared here;
`tools/bench_pairs.py` compares those in separate processes.

The perfbench of the checkout that holds this script draws the jobs.
Standard library only; no bytecode is written.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import math
import random
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
Z_95 = statistics.NormalDist().inv_cdf(0.975)


def load_tree(tree: Path, name: str, modules) -> SimpleNamespace:
    """tree/src/arithdyn imported afresh as the package `name`, in the
    shape of perfbench's `import_library`."""
    for old in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[old]
    src = tree / "src" / "arithdyn"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    lib = SimpleNamespace(pkg=pkg, QQ=pkg.QQ, modules={"arithdyn": pkg})
    for mod in modules:
        lib.modules[mod] = importlib.import_module(f"{name}.{mod}")
        setattr(lib, mod, lib.modules[mod])
    return lib


def first_side(k: int) -> tuple[str, str]:
    """The order in which job k runs on the two sides."""
    return ("a", "b") if k % 2 == 0 else ("b", "a")


def ratio_interval(times_a, times_b) -> tuple[float, float, float]:
    """(geometric mean, low, high) of times_b[k] / times_a[k], the interval
    the 95 % normal interval of the mean log ratio."""
    logs = [math.log(b / a) for a, b in zip(times_a, times_b)]
    mean = statistics.fmean(logs)
    half = Z_95 * statistics.stdev(logs) / math.sqrt(len(logs)) if len(logs) > 1 else 0.0
    return math.exp(mean), math.exp(mean - half), math.exp(mean + half)


def row(workload: str, pair: str, times_a, times_b) -> str:
    ratio, low, high = ratio_interval(times_a, times_b)
    seconds = sum(times_a) + sum(times_b)
    return (
        f"| {workload} | {pair} | {ratio:.3f} | [{low:.3f}, {high:.3f}] "
        f"| {len(times_a)} | {seconds:.1f} |"
    )


def timed(lib, wl, job) -> float:
    gc.collect()
    t0 = time.thread_time()
    try:
        wl.run(lib, job)
    except lib.errors.BudgetExceededError:
        pass
    return time.thread_time() - t0


def paired(pb, wl, tree_a: Path, tree_b: Path, jobs, warm_jobs):
    """(times_a, times_b) of the jobs on fresh copies of the two trees."""
    libs = {
        "a": load_tree(tree_a, "arithdyn_a", pb.MODULES),
        "b": load_tree(tree_b, "arithdyn_b", pb.MODULES),
    }
    for lib in libs.values():
        if wl.warm is not None:
            wl.warm(lib)
        for job in warm_jobs:
            timed(lib, wl, job)
    gc.collect()
    gc.freeze()
    times = {"a": [], "b": []}
    try:
        for k, job in enumerate(jobs):
            took = {side: timed(libs[side], wl, job) for side in first_side(k)}
            if took["a"] > 0 and took["b"] > 0:
                times["a"].append(took["a"])
                times["b"].append(took["b"])
    finally:
        gc.unfreeze()
    return times["a"], times["b"]


def load_perfbench():
    """perfbench's run.py, which imports its workloads and oracles."""
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    pb = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pb)
    return pb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--jobs", type=int, default=400, help="jobs per workload")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    pb = load_perfbench()
    wls = pb.wls
    rows = [
        "| workload | pair | ratio B/A | 95 % interval | jobs | seconds |",
        "|---|---|---|---|---|---|",
    ]
    for name in args.workload:
        wl = wls.WORKLOADS[name]
        taken: set = set()
        warm = wls.generate(wl, random.Random(f"warm/{name}"), pb.WARM_JOBS, False, taken)
        jobs = wls.generate(wl, random.Random(f"{name}/{args.seed}"), args.jobs, False, taken)
        for pair, tree_a in (("B/A", args.tree_a), ("A/A", args.tree_b)):
            times_a, times_b = paired(pb, wl, tree_a, args.tree_b, jobs, warm)
            rows.append(row(name, pair, times_a, times_b))
            print(rows[-1], flush=True)
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
