"""`tools/bench_pairs.py`'s verdict on fixed paired runs; no process is started.
The script is loaded from its path."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# ten parent runs with median 100 and quartiles [99.25, 100.75]
STEADY = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
# ten parent runs with median 100 and quartiles [82.5, 117.5], 35 % apart
NOISY = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]


@pytest.mark.parametrize(
    "parent, change, better, want",
    [
        (STEADY, [x + 50 for x in STEADY], "higher", "gain"),
        (STEADY, [x / 2 for x in STEADY], "lower", "gain"),
        (STEADY, STEADY, "higher", "within bound"),  # ten ties win nothing
        (STEADY, [x * 1.1 for x in STEADY], "lower", "within bound"),
        (STEADY, [x * 0.7 for x in STEADY], "higher", "worse"),
        (STEADY, [x * 1.3 for x in STEADY], "lower", "worse"),
        (NOISY, NOISY[::-1], "higher", "unresolved"),
        (NOISY, [x * 0.5 for x in NOISY], "higher", "unresolved"),
        # wider than the bound, but every change run is better than every parent run
        (NOISY, [141] * 10, "higher", "gain"),
    ],
)
def test_verdict(parent, change, better, want):
    assert bench_pairs.verdict(parent, change, better, 0.25) == want


def test_gain_needs_nine_wins_in_ten():
    # the median gains 10, far more than the quartile spread of 1.5, but the
    # change wins only 8 of 10 pairs
    change = [x + 10 for x in STEADY[:8]] + [x - 1 for x in STEADY[8:]]
    assert bench_pairs.wins(STEADY, change, "higher") == 8
    assert bench_pairs.verdict(STEADY, change, "higher", 0.25) == "within bound"
    assert bench_pairs.verdict(STEADY, change[:9] + [STEADY[9] + 10], "higher", 0.25) == "gain"


def test_gain_needs_more_than_the_spread():
    # ten wins, but by less than the parent's interquartile range of 1.5
    assert bench_pairs.verdict(STEADY, [x + 1 for x in STEADY], "higher", 0.25) == "within bound"


def test_quartiles_and_table_row():
    assert bench_pairs.quartiles(STEADY) == (99.25, 100, 100.75)
    spec = [{"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
    rows = bench_pairs.table("w", [{"work_per_s": x} for x in STEADY],
                             [{"work_per_s": x + 50} for x in STEADY], spec)
    assert rows[2] == "| w | work_per_s (1/s) | 100 [99.25, 100.8] | 150 | +50.0 % | 10/10 | gain |"
