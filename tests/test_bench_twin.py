"""`tools/bench_twin.py` on fixed numbers; no process is started.  The
script is loaded from its path."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import arithdyn

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_twin", ROOT / "tools" / "bench_twin.py")
bench_twin = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_twin)


def test_sides_alternate_which_runs_first():
    assert [bench_twin.first_side(k) for k in range(4)] == [
        ("a", "b"), ("b", "a"), ("a", "b"), ("b", "a")
    ]


def test_equal_ratios_have_no_spread():
    assert bench_twin.ratio_interval([1.0, 2.0, 4.0], [0.5, 1.0, 2.0]) == (0.5, 0.5, 0.5)


def test_ratio_is_the_geometric_mean_with_a_normal_interval():
    # log ratios +-0.1 around log 0.8: mean log 0.8, standard deviation
    # 0.1 * sqrt(4/3) over four jobs
    a = [1.0, 2.0, 3.0, 4.0]
    b = [x * 0.8 * math.exp(e) for x, e in zip(a, (0.1, -0.1, 0.1, -0.1))]
    ratio, low, high = bench_twin.ratio_interval(a, b)
    half = 1.959964 * 0.1 * math.sqrt(4 / 3) / 2
    assert ratio == pytest.approx(0.8)
    assert low == pytest.approx(0.8 * math.exp(-half))
    assert high == pytest.approx(0.8 * math.exp(half))


def test_row():
    row = bench_twin.row("q_sweep", "B/A", [1.0, 2.0, 4.0], [0.5, 1.0, 2.0])
    assert row == "| q_sweep | B/A | 0.500 | [0.500, 0.500] | 3 | 10.5 |"


def test_a_tree_loads_under_its_own_name():
    lib = bench_twin.load_tree(ROOT, "arithdyn_twin_test", ("ratmap",))
    try:
        assert lib.pkg.__name__ == "arithdyn_twin_test"
        assert lib.ratmap.__name__ == "arithdyn_twin_test.ratmap"
        # a copy of its own, with caches of its own
        assert lib.ratmap is not arithdyn.ratmap
        assert lib.ratmap.resultant_raw is not arithdyn.ratmap.resultant_raw
        phi = lib.ratmap.make_map(lib.QQ, (3, 0, 1), (1, 0, 0))
        assert lib.modules["ratmap"] is lib.ratmap and str(phi) == "z^2+3"
    finally:
        for name in [m for m in sys.modules if m.startswith("arithdyn_twin_test")]:
            del sys.modules[name]
