"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles as orc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wls  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(wls.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    table = proc.stdout
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in table.splitlines()), m["name"]
    for name in ("failed_ratio", "refused_ratio", "undecided_ratio"):
        assert name in table


def test_corrupted_reference_answer_counts_as_failed(monkeypatch):
    wl = wls.WORKLOADS["residue_graphs"]
    lib, jobs, _ = run.setup(wl, 3, 8, True)
    real = orc.successors
    corrupted = []

    def one_wrong_table(*args):
        table = real(*args)
        if not corrupted:
            corrupted.append(True)
            table[0] = (table[0] + 1) % len(table)
        return table

    monkeypatch.setattr(orc, "successors", one_wrong_table)
    rows = run.run_jobs(lib, wl, jobs, run.SpeedProbe())
    summary = run.summarize(rows)
    assert summary.failed == 1
    assert summary.failed_ratio == pytest.approx(1 / len(jobs))
    assert "successor table" in summary.failures[0][1]


def test_self_times_on_a_synthetic_span_tree():
    # job 10 s: A 6 s (B 2 s, C 1.5 s), D 3 s; A's B is an aggregate of 4 calls
    records = [
        {"id": 0, "name": "job", "parent": None, "calls": 1, "total_s": 10.0},
        {"id": 1, "name": "A", "parent": 0, "calls": 1, "total_s": 6.0},
        {"id": 2, "name": "B", "parent": 1, "calls": 4, "total_s": 2.0},
        {"id": 3, "name": "C", "parent": 1, "calls": 1, "total_s": 1.5},
        {"id": 4, "name": "D", "parent": 0, "calls": 1, "total_s": 3.0},
        {"id": 5, "name": "A", "parent": 4, "calls": 2, "total_s": 1.0},
    ]
    assert spans.self_times(records) == {0: 1.0, 1: 2.5, 2: 2.0, 3: 1.5, 4: 2.0, 5: 1.0}
    layers = spans.layer_metrics(records)
    assert layers["A"]["calls"] == 3
    assert layers["A"]["self_s"] == pytest.approx(3.5)
    assert layers["A"]["s"] == pytest.approx(7.0)
    assert layers["B"] == {"calls": 4, "s": 2.0, "self_s": 2.0}


def test_live_tracer_nests_and_aggregates():
    lib = run.import_library()
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        tracer.begin_job(0)
        lib.fppoly.pgcd(2, (1, 0, 1), (1, 1))
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert lib.fppoly.pgcd.__module__ == "arithdyn.fppoly"
    layers = spans.layer_metrics(tracer.records())
    assert layers["fppoly.pgcd"]["calls"] == 1
    assert layers["fppoly.pdivmod"]["calls"] >= 1  # pgcd -> pmod -> pdivmod
    selfs = spans.self_times(tracer.records())
    assert all(v >= -1e-6 for v in selfs.values())


@pytest.mark.parametrize("workload", ["analyze_mix", "fpt_search"])
def test_traced_call_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1", "--tiny")
    first, second = _last_json(_bench(*args)), _last_json(_bench(*args))
    counts = {n for n, m in first["metrics"].items() if m["unit"] == "count"}
    assert any(first["metrics"][n]["value"] for n in counts)
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_same_seed_gives_same_inputs():
    for wl in wls.WORKLOADS.values():
        a = wls.generate(wl, random.Random("x/5"), 25, False, set())
        b = wls.generate(wl, random.Random("x/5"), 25, False, set())
        assert [(j.kind, j.args) for j in a] == [(j.kind, j.args) for j in b]
        assert len({repr(sorted(j.args.items())) for j in a}) == len(a)


def test_form_resultant_matches_the_library():
    lib = run.import_library()
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(1, 5)
        fco = tuple(rng.randint(-5, 5) for _ in range(d + 1))
        gco = tuple(rng.randint(-5, 5) for _ in range(d + 1))
        want = lib.ratmap.sylvester_resultant(lib.QQ, fco, gco)
        assert orc.form_resultant(orc.RationalField(), fco, gco) == want
        P = 1_000_003
        assert orc.form_resultant(orc.PrimeField(P), [c % P for c in fco], [c % P for c in gco]) == want % P
    F2 = lib.fields.function_field(2)
    pi = (1, 1, 0, 0, 1)  # t^4 + t + 1
    fld = orc.field_for(2, pi)
    for _ in range(20):
        d = rng.randint(1, 3)
        fco = tuple(orc.trim(rng.randrange(2) for _ in range(3)) for _ in range(d + 1))
        gco = tuple(orc.trim(rng.randrange(2) for _ in range(3)) for _ in range(d + 1))
        want = lib.ratmap.sylvester_resultant(F2, fco, gco)
        red = [orc.code_of(2, orc.pmod(2, c, pi)) for c in fco], [orc.code_of(2, orc.pmod(2, c, pi)) for c in gco]
        assert orc.form_resultant(fld, *red) == orc.code_of(2, orc.pmod(2, want, pi))


def test_rabin_test_matches_the_library_sieve():
    lib = run.import_library()
    for p, n in ((2, 6), (3, 4)):
        want = set(lib.fppoly.enumerate_monic_irreducibles(p, n))
        got = {f for k in range(1, n + 1) for f in _monics(p, k) if orc.is_irreducible(p, f)}
        assert got == want


def _monics(p, n):
    for code in range(p**n):
        yield orc.poly_of_code(p, code) + (0,) * (n - len(orc.poly_of_code(p, code))) + (1,)


def test_bare_directory_exits_nonzero_without_a_result():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _bench("--workload", "q_sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
