"""Frozen reports: CLI stdout and exit codes, and multiplier data.

`golden_cli.json` holds the output of every command below as the code
printed it before the Q and F_p(t) arithmetic shared one ring core.  The
"cli" entries cover all seven subcommands over Q, F_2(t) and F_3(t),
including bad places at infinity, points at infinity, undecided and
divergent orbits and two error exits.  The "cli_text" entries run the same
argv without --json, plus error argv for each diagnostic kind (usage,
DomainError, PreconditionError, io and the other refusals), and freeze
stdout, stderr and the exit code of each.  The last of them are place
tokens for `graph --place` and `sunit-solve --S` (wrong field, not monic,
reducible, malformed, duplicated, no archimedean place), recorded before
places lost their stored kind.  A token with the other field's prefix is
a DomainError (exit 2) whatever follows the prefix, as `pi:5` over Q
already was; `pi:a,b` and `pi:1,1` over Q and `p:abc` over F_2(t) were
usage errors until `parse_place` checked the prefix first.  A malformed
body after the field's own prefix is a usage error.  `bounds` has no
`--map-degree` option: one entry freezes it as an unknown argument, and
one a zero `--s`.  The
CLI prints no multipliers, so the "multipliers" entries freeze
`multiplier`, the classification at the first two good places (the sign
of the multiplier's valuation: attracting, indifferent or repelling) and
`check_period_relation` on every cycle a small search finds.
"""

import json
from pathlib import Path

import pytest

import arithdyn as ad
from arithdyn.fields import iter_places_by_size
from arithdyn.cli import run
from conftest import multiplier_sign

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
FIELDS = {"Q": ad.QQ, "F2(t)": ad.function_field(2), "F3(t)": ad.function_field(3)}
# the frozen classification of each sign of v(multiplier)
CLASSES = {1: "attracting", 0: "indifferent", -1: "repelling"}


@pytest.mark.parametrize(
    "entry", GOLDEN["cli"], ids=lambda e: " ".join(e["argv"][:4])
)
def test_cli_output_is_frozen(capsys, entry):
    code = run(list(entry["argv"]))
    assert capsys.readouterr().out == entry["stdout"]
    assert code == entry["code"]


@pytest.mark.parametrize(
    "entry", GOLDEN["cli_text"], ids=lambda e: " ".join(e["argv"][:4])
)
def test_cli_text_is_frozen(capsys, entry):
    code = run(list(entry["argv"]))
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == (entry["stdout"], entry["stderr"], entry["code"])


def _first_good_places(phi, count=2):
    places = []
    for pl in iter_places_by_size(phi.field):
        if len(places) == count:
            return places
        if pl not in ad.bad_places(phi):
            places.append(pl)


@pytest.mark.parametrize(
    "entry",
    GOLDEN["multipliers"],
    ids=lambda e: f"{e['field']} {e['map']} {e['point']}",
)
def test_multiplier_data_is_frozen(entry):
    field = FIELDS[entry["field"]]
    phi = ad.parse_map(entry["map"], field)
    pt = ad.parse_point(field, entry["point"])
    n = entry["n"]
    assert str(ad.multiplier(phi, pt, n)) == entry["multiplier"]
    places = _first_good_places(phi)
    assert [
        [pl.serialize(), CLASSES[multiplier_sign(phi, pt, n, pl)]] for pl in places
    ] == entry["classify"]
    relation = []
    for pl in places:
        try:
            v = ad.check_period_relation(phi, pt, n, pl)
            relation.append([pl.serialize(), v.case, v.e, v.m, str(v.r)])
        except ad.ArithDynError as exc:
            relation.append([pl.serialize(), type(exc).__name__])
    assert relation == entry["relation"]
