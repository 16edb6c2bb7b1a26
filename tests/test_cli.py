import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import arithdyn as ad
from arithdyn import sunit
from arithdyn.cli import _json_text, run
from arithdyn.dynamics import DEFAULT_MAX_STEPS
from arithdyn.fields import function_field, polynomial_ring
from arithdyn.parsing import parse_element

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

    # q = 2, 101 and 99991 over Q; 4 and 9 are extension fields of F_2(t)
    # and F_3(t), whose element u is the class of t; the labels of every
    # node at q <= 9, and of a sample of nodes and both ends above
    @pytest.mark.parametrize(
        "field, expr, token, want",
        [
            ("Q", "z^2+1", "p:2", ["[0 : 1]", "[1 : 1]", "[1 : 0]"]),
            (
                "Fp:2", "z^2+t", "pi:1,1,1",
                ["[0 : 1]", "[1 : 1]", "[u : 1]", "[u+1 : 1]", "[1 : 0]"],
            ),
            (
                "Fp:3", "(z^2+t)/(z+1)", "pi:1,0,1",
                ["[0 : 1]", "[1 : 1]", "[2 : 1]", "[u : 1]", "[u+1 : 1]", "[u+2 : 1]",
                 "[2*u : 1]", "[2*u+1 : 1]", "[2*u+2 : 1]", "[1 : 0]"],
            ),
            ("Q", "(z^2+1)/(z-3)", "p:101", {0: "[0 : 1]", 57: "[57 : 1]", 101: "[1 : 0]"}),
            (
                "Q", "z^2+1", "p:99991",
                {1: "[1 : 1]", 4567: "[4567 : 1]", 99990: "[99990 : 1]", 99991: "[1 : 0]"},
            ),
        ],
        ids=["q2", "q4", "q9", "q101", "q99991"],
    )
    def test_graph_labels_are_the_reduced_points(self, capsys, field, expr, token, want):
        argv = ("graph", "--field", field, expr, "--place", token)
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        result = json.loads(out)["result"]
        labels = result["labels"]
        assert len(labels) == result["q"] + 1
        if isinstance(want, list):
            assert labels == want
        else:
            assert {node: labels[node] for node in want} == want
        # the text report labels the nodes of each cycle as JSON does
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        cycles = [line.removeprefix("  cycle: ") for line in out.splitlines() if "cycle:" in line]
        assert cycles == [" -> ".join(labels[node] for node in c) for c in result["cycles"]]


# JSON values as the json module reads them: ints past 2^64, bools, None,
# floats, strings with quotes, escapes and non-ASCII, lists of ints only,
# of strs only and of ints mixed with bools, and empty containers
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**300).map(lambda n: n * (-1) ** (n % 2))
    | st.floats()
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t", "é", "z²", "\u2028", "\U0001f600", ""])
)
_JSON = st.recursive(
    _SCALARS
    | st.lists(st.integers())
    | st.lists(st.text())
    | st.lists(st.integers() | st.booleans()),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@given(_JSON)
def test_json_text_is_json_dumps_with_indent(value):
    assert _json_text(value) == json.dumps(value, indent=2)


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

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_violated_bound_exits_three(self, capsys, monkeypatch, json_flag):
        # no input exceeds the true bound, so the bound is set below the
        # two solutions the instance has
        monkeypatch.setattr(sunit, "unit_equation_solution_bound", lambda p, s: 1)
        code, out, _ = run_cli(
            capsys, "sunit-solve", "--field", "Fp:2", "--a", "t+1", "--b", "1",
            "--S", "inf;pi:0,1", "--cap", "6", *json_flag,
        )
        assert code == 3
        if json_flag:
            result = json.loads(out)["result"]
            assert (result["count"], result["bound"], result["within_bound"]) == (2, "1", False)
        else:
            assert "solutions found within cap: 2" in out
            assert "solution-count bound: 1 (VIOLATED)" in out


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

    @pytest.mark.parametrize("expr", ["z^2+1/1000000016000000063", "z^2/3"])
    def test_bad_reduction_decided_without_factoring(self, capsys, tmp_path, expr):
        # z^2 + 1/N has Res = N^4, N = 1000000016000000063, which is never
        # factored: only whether Res is a unit is asked
        path = tmp_path / "maps.txt"
        path.write_text(expr + "\n")
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, "verify-corollary3", "--maps-file", str(path), "--height", "10"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "ArithDynError"
        assert diagnostic["message"].startswith(f"{expr} does not have good reduction")


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--field", "Z5", "z^2")
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_help_describes_the_command_not_the_code(self, capsys):
        # --help shows the module docstring but its last paragraph, which
        # says where the code declares the subcommands
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert exc.value.code == 0
        assert "Exit codes: 0 success, 1 usage error" in out
        assert "implementation bug, not a counterexample)." in out
        assert "_build_parser" not in out

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
            ("orbit", "--field", "Q", "z+1", "--point", "0", "--max-steps", "0"),
            ("search", "--field", "Q", "z+1", "--height", "1", "--max-steps", "-2"),
            ("verify-corollary3", "--c-range=-1:1", "--max-steps", "0"),
            ("search", "--field", "Q", "z^2", "--height", "0"),
            ("search", "--field", "Fp:2", "z^2", "--height", "-1"),
            ("verify-corollary3", "--c-range=-1:1", "--height", "0"),
            ("sunit-solve", "--field", "Q", "--a", "1", "--b", "1", "--S", "inf;p:2", "--cap", "0"),
            ("sunit-solve", "--field", "Fp:2", "--a", "1", "--b", "1", "--S", "inf", "--cap", "-3"),
            ("orbit", "--field", "Q", "z^2-1", "--point", "0", "--height-cap", "-1"),
            ("graph", "--field", "Q", "z^2", "--place", "p:3", "--node-budget", "0"),
            ("bounds", "--char", "0", "--degree", "0", "--s", "1"),
            ("bounds", "--char", "2", "--degree", "-1", "--s", "1"),
            ("bounds", "--char", "0", "--degree", "1", "--s", "0"),
            # --map-degree is gone: with any value it is an unknown argument
            ("bounds", "--char", "0", "--degree", "1", "--s", "1", "--map-degree", "1"),
            ("bounds", "--char", "0", "--degree", "1", "--s", "1", "--map-degree", "0"),
            ("bounds", "--char", "3", "--degree", "1", "--s", "1", "--map-degree", "-3"),
        ],
        ids=[
            "characteristic", "place", "place-set", "poly-place", "empty-poly-place",
            "zero-max-steps", "negative-max-steps", "zero-max-steps-sweep",
            "zero-height", "negative-height", "zero-height-sweep", "zero-cap", "negative-cap",
            "negative-height-cap", "zero-node-budget",
            "zero-degree", "negative-degree", "zero-s",
            "linear-map-degree", "zero-map-degree", "negative-map-degree",
        ],
    )
    def test_malformed_number_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "usage"

    # int() reads any Unicode decimal digit; option integers take ASCII
    # only.  The same argv in ASCII digits is no usage error.
    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "--field", "Q", "z^2-1", "--height", "\u0663"),
            ("orbit", "--field", "Q", "z+1", "--point", "0", "--max-steps", "\u0665"),
            ("bounds", "--char", "\u0660", "--degree", "1", "--s", "1"),
            ("sunit-solve", "--field", "Q", "--a", "1", "--b", "1", "--S", "inf", "--cap", "\u0662"),
            ("verify-corollary3", "--c-range=-\u0661:\u0661", "--height", "3"),
            ("analyze", "--field", "Fp:\u0663", "z^2"),
            ("graph", "--field", "Q", "z^2", "--place", "p:\u0667"),
            ("graph", "--field", "Fp:2", "z^2", "--place", "pi:1,\u0661,1"),
        ],
        ids=["height", "max-steps", "char", "cap", "c-range", "characteristic", "place", "poly-place"],
    )
    def test_non_ascii_digit_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, json.loads(err)["error"]) == (1, "", "usage")
        ascii_argv = [arg.translate({0x660 + d: str(d) for d in range(10)}) for arg in argv]
        assert run_cli(capsys, *ascii_argv)[0] != 1

    @pytest.mark.parametrize("steps", [None, 1])
    def test_smallest_and_default_max_steps(self, capsys, steps):
        argv = ["orbit", "--field", "Q", "z+1", "--point", "0", "--json"]
        if steps is not None:
            argv += ["--max-steps", str(steps)]
        code, out, _ = run_cli(capsys, *argv)
        result = json.loads(out)["result"]
        want = DEFAULT_MAX_STEPS if steps is None else steps
        assert code == 2
        assert result["budget"]["max_steps"] == want
        assert (result["reason"], result["steps"]) == ("steps", want)


def run_subprocess(*argv, timeout=10, module="arithdyn.cli"):
    """The CLI in a fresh process: (exit code, stdout, stderr, seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


class TestPackageAsModule:
    def test_python_m_arithdyn_runs_the_cli(self):
        argv = ("orbit", "--field", "Q", "z^2-1", "--point", "1", "--json")
        code, out, err, _ = run_subprocess(*argv, module="arithdyn")
        assert (code, err) == (0, "")
        assert (code, out) == run_subprocess(*argv)[:2]
        assert json.loads(out)["result"]["cycle"] == ["[0 : 1]", "[-1 : 1]"]

    def test_python_m_arithdyn_keeps_the_exit_codes(self):
        assert run_subprocess("orbit", "--field", "Q", "z+1", "--point", "0",
                              "--max-steps", "0", module="arithdyn")[0] == 1
        assert run_subprocess("orbit", "--field", "Q", "z+1", "--point", "0",
                              "--max-steps", "5", module="arithdyn")[0] == 2


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

    def test_large_irreducible_resultant_factor_answered(self):
        # Res is the square of an irreducible of degree 30 over F_2, which
        # Ben-Or's test settles; trial division would need the irreducibles
        # of degree up to 15 first
        code, out, _, seconds = run_subprocess(
            "analyze", "--field", "Fp:2",
            "z^2/(t^30+t^27+t^25+t^24+t^20+t^19+t^17+t^16+t^15+t^13+t^6+t^2+1)", "--json",
        )
        assert code == 0
        bad = json.loads(out)["result"]["bad_places"]
        assert bad == ["inf", "pi:1,0,1,0,0,0,1,0,0,0,0,0,0,1,0,1,1,1,0,1,1,0,0,0,1,1,0,1,0,0,1"]
        assert seconds < 1

    def test_factoring_past_the_budget_refused(self):
        # Res = (t^2+t)^2: t(t+1) is a product of two linear factors, and
        # splitting it needs linear trial divisors, past the budget of 10^6
        # over F_1000003
        code, _, err, seconds = run_subprocess(
            "analyze", "--field", "Fp:1000003", "z^2/(t^2+t)"
        )
        assert code == 2
        assert "BudgetExceededError" in err
        assert seconds < 2

    def test_semiprime_resultant_answered(self):
        # Res = N^4 with N = (10^9 + 7) * (10^9 + 9): trial division to 10^6
        # refused it, and Brent's rho splits N in about 5*10^4 steps
        code, out, _, seconds = run_subprocess(
            "analyze", "--field", "Q", "z^2+1/1000000016000000063", "--json"
        )
        assert code == 0
        assert json.loads(out)["result"]["bad_places"] == ["p:1000000007", "p:1000000009"]
        assert seconds < 2

    def test_irreducible_factor_past_the_budget_answered(self):
        # Res = (t^2+1)^2 with t^2+1 irreducible over F_1000003: splitting by
        # degree needs no trial divisor
        code, out, _, seconds = run_subprocess(
            "analyze", "--field", "Fp:1000003", "z^2/(t^2+1)", "--json"
        )
        assert code == 0
        assert json.loads(out)["result"]["bad_places"] == ["inf", "pi:1,0,1"]
        assert seconds < 2

    # two fuzz maps whose resultants (degree 74 over F_3, 68 over F_7) have
    # factors of degree 25 and 39: trial division built the product sieve
    # for minutes, then refused
    @pytest.mark.parametrize(
        "p, expr",
        [
            (3, "((t^10+2*t^8+2*t+1)*z^4+(t^8+t^4+t^2+1)*z^3+(t^7+2*t^6+t^5+2*t^4+t^2+t+1)*z^2"
                "+(t^3+2)*z+t^7+2*t^6+t^5+2*t^3)/((t^10+2*t^8+2*t+1)*z^2+(t^2+2)*z+2)"),
            (7, "((t)*z^4+(t^7+5*t^6+4*t^5+6*t^4+2*t^3+3*t^2+t)*z^3+(t^5+t^4+4*t)*z^2"
                "+(t^7+t^6+3*t)*z+t^9+4*t)/((t^10+3*t)*z^3+(t^5+t^4+t^2+3)*z^2+(t^8)*z+2*t^2)"),
        ],
        ids=["F3", "F7"],
    )
    def test_large_distinct_degree_factors_answered(self, p, expr):
        code, out, _, seconds = run_subprocess("analyze", "--field", f"Fp:{p}", expr, "--json")
        assert code == 0
        assert seconds < 2
        result = json.loads(out)["result"]
        # the bad places multiply back into the resultant: each divides it,
        # and what is left once their powers are divided out is a constant
        ring = polynomial_ring(p)
        res = parse_element(function_field(p), result["resultant"]).num
        assert result["bad_places"][0] == "inf"
        for token in result["bad_places"][1:]:
            e, res = ring.split(res, ring.parse(token.removeprefix("pi:")))
            assert e >= 1
        assert len(res) == 1

    # the whole successor table at the largest prime within the node budget,
    # for a polynomial map and for a map with a pole
    @pytest.mark.parametrize("expr", ["z^2+1", "(z^2+1)/(z-3)"], ids=["polynomial", "pole"])
    def test_graph_at_the_largest_prime_in_budget(self, expr):
        code, out, _, seconds = run_subprocess(
            "graph", "--field", "Q", expr, "--place", "p:99991", "--json"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["nodes"] == len(result["successors"]) == 99992
        assert seconds < 2

    def test_place_of_large_degree_refused_at_once(self):
        # t^1279+t^216+1 is irreducible over F_2, so Ben-Or's test would make
        # all 639 Frobenius steps, over a minute; the work estimate refuses
        # them before the first one
        token = "pi:" + ",".join("1" if i in (0, 216, 1279) else "0" for i in range(1280))
        code, out, err, seconds = run_subprocess(
            "graph", "--field", "Fp:2", "z^2", "--place", token
        )
        assert (code, out) == (2, "")
        assert "BudgetExceededError" in err
        assert seconds < 2

    # p^(2H + 2) is not built for a huge F_p height, nor a range counted
    # for a huge Q height
    @pytest.mark.parametrize(
        "field, height",
        [("Fp:2", "1000000000"), ("Fp:1000000000000000003", "400000"), ("Q", "100000000000000000000")],
        ids=["F2", "huge-p", "Q"],
    )
    def test_huge_height_refused_at_once(self, field, height):
        code, _, err, seconds = run_subprocess("search", "--field", field, "z^2", "--height", height)
        assert code == 2
        assert "BudgetExceededError" in err
        assert seconds < 2

    # eta would pass the 4,300 digits an int may print by default; the
    # refusal comes from a float estimate, before any big int is built
    @pytest.mark.parametrize(
        "char, s",
        [("2", "5000"), ("0", "1000"), ("0", "1000000000000")],
        ids=["F2", "Q", "Q-huge-s"],
    )
    def test_unprintable_bounds_refused_at_once(self, char, s):
        code, out, err, seconds = run_subprocess(
            "bounds", "--char", char, "--degree", "1", "--s", s, "--json"
        )
        assert (code, out) == (2, "")
        assert "BudgetExceededError" in err
        assert seconds < 2

    # D = 100 and the largest admitted contexts over Q answer, and one step
    # past either edge is refused
    @pytest.mark.parametrize(
        "degree, s, want",
        [("100", "1", 0), ("560", "1", 0), ("1", "892", 0), ("561", "1", 2), ("1", "893", 2)],
    )
    def test_char0_bounds_at_the_digit_limit(self, degree, s, want):
        code, out, err, seconds = run_subprocess(
            "bounds", "--char", "0", "--degree", degree, "--s", s, "--json"
        )
        assert code == want
        if want == 0:
            assert len(json.loads(out)["result"]["eta"]) <= 4300
        else:
            assert "BudgetExceededError" in err
        assert seconds < 2

    # values past the printable size were a ValueError traceback with exit 1
    @pytest.mark.parametrize(
        "argv",
        [
            ("orbit", "--field", "Q", "z^2", "--point", "2^15000", "--max-steps", "3"),
            ("search", "--field", "Q", "z^2+2^15000", "--height", "1"),
            ("sunit-solve", "--field", "Q", "--S", "inf;p:2", "--a", "2^15000", "--b", "1",
             "--cap", "1"),
            ("analyze", "--field", "Q", "z^2/3^5000"),  # Res = 3^10000
            ("analyze", "--field", "Q", "z^2+3^100000000"),
            ("analyze", "--field", "Fp:3", "z^2+t^100000000"),
            ("orbit", "--field", "Q", "z^2", "--point", "1" * 4301),
            # 2^14300, one of the units, passes the limit: refused before the enumeration
            ("sunit-solve", "--field", "Q", "--a", "1/2^7150", "--b", "2^7150-1",
             "--S", "inf;p:2", "--cap", "14300"),
            # the cap prints, the height 10^4300 that passes it does not
            ("orbit", "--field", "Q", "10*z", "--point", "1", "--max-steps", "5000",
             "--height-cap", str(10**4299)),
        ],
        ids=["orbit", "search", "sunit-solve", "analyze-res", "Q-power", "t-power", "literal",
             "sunit-cap", "height-cap"],
    )
    def test_values_too_long_to_print_refused(self, argv):
        code, out, err, seconds = run_subprocess(*argv)
        assert (code, out) == (2, "")
        assert "BudgetExceededError" in err
        assert seconds < 1

    def test_long_values_inside_the_limits_print(self):
        code, out, _, _ = run_subprocess("orbit", "--field", "Fp:2", "z^2", "--point", "t^15000")
        assert code == 0 and out.startswith("start: [t^15000 : 1]")
        largest = 2**14284 - 1  # the largest admitted int, 4,300 digits
        code, out, _, _ = run_subprocess(
            "orbit", "--field", "Q", "z^2", "--point", str(largest), "--max-steps", "1"
        )
        assert code == 0 and out.startswith(f"start: [{largest} : 1]")
        code, out, err, _ = run_subprocess("analyze", "--field", "Q", "z^2/3^4506")
        assert code == 0 and f"resultant: {3**9012}" in out  # 14,284 bits

    # the solutions x = 2^2000 and x = t^300 have valuations 2000 and 300 at
    # the place of S; `ring.split` finds them in O(log v) divisions
    @pytest.mark.parametrize(
        "field, a, b, S, cap, want",
        [
            ("Q", "1/2^1000", "2^1000-1", "inf;p:2", "2000",
             [["1", f"1/{2**1000}"], [str(2**2000), "-1"]]),
            ("Fp:2", "1/t^150", "t^150+1", "inf;pi:0,1", "300",
             [["1", "(1)/(t^150)"], ["t^300", "1"]]),
        ],
        ids=["Q", "F2"],
    )
    def test_sunit_solutions_of_high_valuation(self, field, a, b, S, cap, want):
        code, out, _, seconds = run_subprocess(
            "sunit-solve", "--field", field, "--a", a, "--b", b, "--S", S, "--cap", cap, "--json"
        )
        assert code == 0
        assert json.loads(out)["result"]["solutions"] == want
        assert seconds < 3

    def test_sunit_torsion_counted_before_it_is_built(self):
        code, _, err, seconds = run_subprocess(
            "sunit-solve", "--field", "Fp:1000000000000000003",
            "--a", "1", "--b", "1", "--S", "inf", "--cap", "1",
        )
        assert code == 2
        assert "BudgetExceededError" in err
        assert seconds < 2

    # D = t^36 + ... is a product of two degree-18 irreducibles, too many
    # for trial division: good reduction at one place is read off Res = D^2
    # there, without factoring it
    @pytest.mark.parametrize(
        "place, want", [("pi:1,1", 0), ("inf", 2)], ids=["good-place", "bad-infinity"]
    )
    def test_given_place_decided_without_factoring(self, place, want):
        code, out, err, seconds = run_subprocess(
            "graph", "--field", "Fp:2",
            "z^2/(t^36+t^23+t^22+t^20+t^19+t^12+t^11+t^10+t^7+t^3+t^2+t+1)",
            "--place", place,
        )
        assert code == want
        assert ("3 nodes, 3 cycles" in out) if want == 0 else ("PreconditionError" in err)
        assert seconds < 2

    # a = (10^9 + 7) * (10^9 + 9), and a degree-61 polynomial over F_2:
    # S-membership strips the places of S instead of factoring a
    @pytest.mark.parametrize(
        "field, a, S",
        [("Q", "1000000016000000063", "inf;p:2"), ("Fp:2", "t^61+t^5+t^3+t+1", "inf;pi:0,1")],
        ids=["Q", "F2"],
    )
    def test_s_membership_decided_without_factoring(self, field, a, S):
        code, out, _, seconds = run_subprocess(
            "sunit-solve", "--field", field, "--a", a, "--b", "1", "--S", S, "--cap", "2"
        )
        assert code == 0
        assert "S-trivial: False" in out
        assert seconds < 2

    def test_huge_degree_refused_in_a_subprocess(self):
        # the parser refuses z^99999 before expanding it
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "arithdyn.cli", "analyze", "--field", "Q", "z^99999+1"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 2
        assert "BudgetExceededError" in proc.stderr
        assert time.perf_counter() - start < 5

    def test_poonen_map_searched_on_its_candidates(self, capsys):
        # z^2 - 29/16 has denominator bound 4 and radius 3, so the search
        # starts only pairs with y | 4 and |x| < 12 and counts the other
        # 194,712 - 48 points; the bytes are those of the search that
        # started every point below the height radius 11,521
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "search", "--field", "Q", "z^2-29/16", "--height", "400", "--json"
        )
        assert time.perf_counter() - start < 0.5
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["preperiodic_count"], result["scanned"], result["undecided"]) == (
            9, 194_712, []
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1a41171b4ab04f5da400c9ef4b16e3988234eedda8e70c46de097b3dc9330ec5"
        )

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

    @pytest.mark.parametrize("p", ["1000003", "1000000000000000003"])
    def test_irreducible_place_at_huge_p(self, p):
        # t^2 + 1 is irreducible for both primes (each is 3 mod 4); Ben-Or's
        # test needs no list of the p linear polynomials, and P^1 of the
        # residue field is refused by the node budget
        code, _, err, seconds = run_subprocess(
            "graph", "--field", f"Fp:{p}", "z^2", "--place", "pi:1,0,1", timeout=20
        )
        assert code == 2
        assert "node budget" in err
        assert seconds < 1.0

    def test_composite_characteristic_rejected(self, capsys):
        # 10^18 + 1 = 101 * 9901 * 999999000001; the square of that prime
        # has no factor below 10^12, so trial division would not finish
        for p in ("1000000000000000001", str(999999000001**2), "4"):
            code, _, err = run_cli(capsys, "analyze", "--field", f"Fp:{p}", "z^2")
            assert code == 2
            assert "DomainError" in err and "not a prime" in err

    @pytest.mark.parametrize("p", ["0", "1"])
    def test_characteristic_below_two_rejected(self, capsys, p):
        # Fp:0 used to run over Q
        code, out, err = run_cli(capsys, "analyze", "--field", f"Fp:{p}", "z^2+1/2")
        assert (code, out) == (2, "")
        assert err == f'{{"error": "DomainError", "message": "{p} is not a prime"}}\n'
