import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from arithdyn.cli import run

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_json_spot_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--char", "2", "--degree", "1", "--s", "1", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"] == {
            "eta": "64",
            "cycle_bound": "60",
            "i_bound": "3",
            "r_bound": "1",
        }

    def test_char_zero_includes_evertse(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--char", "0", "--degree", "1", "--s", "1", "--json"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["evertse_bound"] == "256"
        assert "r_bound" not in result

    def test_preper_bound_with_map_degree(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--char", "2", "--degree", "1", "--s", "1",
            "--map-degree", "2", "--json",
        )
        assert code == 0
        result = json.loads(out)["result"]
        # B = 64, C = 60: d^(lcm(1..60)) is astronomically large, so the
        # CLI reports the exact construction data instead of the number
        assert result["preper_total_bound"] is None
        assert "lcm(1..60)" in result["preper_total_note"]

    def test_huge_cycle_bound_refused_before_lcm(self, capsys):
        # C = 90331006 here: lcm(1..C) itself would exhaust memory
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "bounds", "--char", "0", "--degree", "1", "--s", "2",
            "--map-degree", "2", "--json",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        result = json.loads(out)["result"]
        assert result["preper_total_bound"] is None
        assert "lcm(1..90331006)" in result["preper_total_note"]


class TestAnalyzeCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--field", "Q", "z^2-1")
        assert code == 0
        assert "degree: 2" in out
        assert "resultant: 1" in out
        assert "bad places: none" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--field", "Q", "z^2/3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["bad_places"] == ["p:3"]
        assert json.loads(json.dumps(report)) == report

    def test_default_s_and_bounds_reported(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--field", "Q", "z^2/3", "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["default_S"] == "inf;p:3"  # archimedean plus the bad place
        assert int(result["bounds"]["cycle_bound"]) > 0

    def test_function_field(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--field", "Fp:2", "(t*z^2+1)/z", "--json"
        )
        assert code == 0
        assert json.loads(out)["result"]["bad_places"] == ["inf", "pi:0,1"]


class TestOrbitCommand:
    def test_orbit_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--field", "Q", "z^2-1", "--point", "1", "--json"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["tail"] == ["[1 : 1]"]
        assert result["cycle"] == ["[0 : 1]", "[-1 : 1]"]
        assert result["n"] == 2 and not result["undecided"]

    def test_divergent_point_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--field", "Q", "z^2", "--point", "5", "--json"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["divergent"] and not result["undecided"]

    @pytest.mark.parametrize(
        "args, reason",
        [
            (["z^2", "--point", "5"], "escape"),
            (["z+1", "--point", "0", "--max-steps", "25"], "steps"),
            (["z+1", "--point", "0", "--height-cap", "10"], "height"),
        ],
    )
    def test_json_names_what_stopped_the_orbit(self, capsys, args, reason):
        code, out, _ = run_cli(capsys, "orbit", "--field", "Q", *args, "--json")
        result = json.loads(out)["result"]
        assert result["reason"] == reason
        assert result["divergent"] == (reason == "escape")
        assert code == (0 if reason == "escape" else 2)

    def test_undecided_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--field", "Q", "z+1", "--point", "0",
            "--max-steps", "25", "--json",
        )
        assert code == 2
        assert json.loads(out)["result"]["undecided"]


class TestSearchCommand:
    def test_search_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--field", "Q", "z^2-1", "--height", "10", "--json"
        )
        assert code == 0
        result = json.loads(out)["result"]
        starts = {r["start"] for r in result["preperiodic"]}
        assert starts == {"[0 : 1]", "[-1 : 1]", "[1 : 1]", "[1 : 0]"}
        assert result["undecided"] == []

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(
            capsys, "search", "--field", "Fp:3", "z^2", "--height", "1", "--json"
        )
        _, out2, _ = run_cli(
            capsys, "search", "--field", "Fp:3", "z^2", "--height", "1", "--json"
        )
        assert out1 == out2


class TestGraphCommand:
    def test_graph_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph", "--field", "Q", "z^2", "--place", "p:3", "--json"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["q"] == 3
        assert result["successors"] == [0, 1, 1, 3]
        assert result["tail_depth"] == [0, 0, 1, 0]

    def test_graph_at_function_field_place(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph", "--field", "Fp:2", "z^2+1", "--place", "pi:1,1,1",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["result"]["q"] == 4

    def test_graph_at_infinite_place(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph", "--field", "Fp:3", "z^2+1", "--place", "inf", "--json"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["q"] == 3 and result["nodes"] == 4

    def test_huge_prime_place_refused_by_node_budget(self, capsys):
        # 10^18 + 3 is prime: Miller-Rabin says so at once, and the graph
        # of its residue field is then refused before any node is built
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, "graph", "--field", "Q", "z^2", "--place", "p:1000000000000000003"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "node budget" in err

    def test_graph_at_bad_place_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "graph", "--field", "Q", "z^2/3", "--place", "p:3"
        )
        assert code == 2
        assert "PreconditionError" in err


class TestSunitSolveCommand:
    def test_solve(self, capsys):
        code, out, _ = run_cli(
            capsys, "sunit-solve", "--field", "Q", "--a", "1", "--b", "1",
            "--S", "inf;p:2;p:3", "--cap", "4", "--json",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["s_trivial"]
        assert ["2", "-1"] in result["solutions"]

    def test_nontrivial_bound_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "sunit-solve", "--field", "Fp:2", "--a", "t+1", "--b", "1",
            "--S", "inf;pi:0,1", "--cap", "6", "--json",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["bound"] == "16" and result["within_bound"]


class TestVerifyCorollary3:
    def test_small_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-corollary3", "--c-range=-10:10", "--height", "50",
            "--json",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["all_pass"]
        assert result["max_cycle"]["value"] >= 2  # witness c = -1

    def test_single_c_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-corollary3", "--c-range=0:0", "--height", "10",
            "--json",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["per_map"][0]["preperiodic"] == 4
        assert result["max_cycle"]["value"] == 1

    def test_maps_file(self, capsys, tmp_path):
        path = tmp_path / "maps.txt"
        path.write_text("# everywhere-good examples\nz^2-1\nz^2+1  # wandering\n")
        code, out, _ = run_cli(
            capsys, "verify-corollary3", "--maps-file", str(path), "--height", "20",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["result"]["maps"] == 2

    def test_maps_file_with_bad_reduction_rejected(self, capsys, tmp_path):
        path = tmp_path / "maps.txt"
        path.write_text("z^2/3\n")
        code, _, err = run_cli(
            capsys, "verify-corollary3", "--maps-file", str(path), "--height", "10"
        )
        assert code == 2
        assert "error" in err


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--field", "Z5", "z^2")
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_map_syntax_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--field", "Q", "z^^2")
        assert code == 1
        assert "position" in err

    def test_computation_error(self, capsys):
        code, _, err = run_cli(
            capsys, "graph", "--field", "Q", "z^2", "--place", "p:6"
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--field", "Fp:abc", "z^2"),
            ("graph", "--field", "Q", "z^2", "--place", "p:abc"),
            ("sunit-solve", "--field", "Q", "--a", "1", "--b", "1", "--S", "inf;p:x", "--cap", "2"),
            ("graph", "--field", "Fp:2", "z^2", "--place", "pi:a,b"),
            ("graph", "--field", "Fp:2", "z^2", "--place", "pi:"),
        ],
        ids=["characteristic", "place", "place-set", "poly-place", "empty-poly-place"],
    )
    def test_malformed_number_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "usage"


def run_subprocess(*argv, timeout=10):
    """The CLI in a fresh process: (exit code, stdout, stderr, seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "arithdyn.cli", *argv],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


class TestRobustness:
    def test_square_of_a_linear_factor_at_huge_p(self):
        # Res = (t+1)^2: its squarefree part t+1 is irreducible, so no
        # trial division over the 10^18 linear candidates is needed
        code, out, _, seconds = run_subprocess(
            "analyze", "--field", "Fp:1000000000000000003", "z^2/(t+1)"
        )
        assert code == 0
        assert "bad places: inf, (t+1)" in out
        assert seconds < 2

    def test_factoring_past_the_budget_refused(self):
        # Res = (t^2+1)^2 with t^2+1 irreducible over F_1000003: its linear
        # trial divisors alone would pass the budget of 10^6
        code, _, err, seconds = run_subprocess(
            "analyze", "--field", "Fp:1000003", "z^2/(t^2+1)"
        )
        assert code == 2
        assert "BudgetExceededError" in err
        assert seconds < 2

    def test_sunit_torsion_counted_before_it_is_built(self):
        code, _, err, seconds = run_subprocess(
            "sunit-solve", "--field", "Fp:1000000000000000003",
            "--a", "1", "--b", "1", "--S", "inf", "--cap", "1",
        )
        assert code == 2
        assert "BudgetExceededError" in err
        assert seconds < 2

    def test_huge_degree_refused_in_a_subprocess(self):
        # the parser refuses z^99999 before expanding it
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "arithdyn.cli", "analyze", "--field", "Q", "z^99999+1"],
            env={"PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 2
        assert "BudgetExceededError" in proc.stderr
        assert time.perf_counter() - start < 5

    def test_function_field_resultant_refused_by_budget(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "analyze", "--field", "Fp:2", "z^200+t")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "BudgetExceededError" in err

    def test_huge_characteristic_checked_by_miller_rabin(self, capsys):
        # 10^18 + 3 is prime: the field is accepted at once and P^1 of the
        # residue field at infinity is refused by the node budget
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, "graph", "--field", "Fp:1000000000000000003", "z^2", "--place", "inf"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "node budget" in err

    def test_composite_characteristic_rejected(self, capsys):
        # 10^18 + 1 = 101 * 9901 * 999999000001; the square of that prime
        # has no factor below 10^12, so trial division would not finish
        for p in ("1000000000000000001", str(999999000001**2), "4"):
            code, _, err = run_cli(capsys, "analyze", "--field", f"Fp:{p}", "z^2")
            assert code == 2
            assert "DomainError" in err and "not a prime" in err
