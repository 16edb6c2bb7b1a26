"""Pinned places: every observable of a place over Q, F_2(t), F_3(t) and F_5(t).

A place is read by its token, and each row pins what the library shows of
it: `serialize`, `str`, `kind`, `degree`, and the size q and degree of
`residue_field(place)` (the archimedean place has no residue
field).  The order of a place set and the round trip through `parse_place`
are pinned too, so a change to how places are stored cannot move any of it.
So is the answer to a token of the wrong field, on the library and on the
command line.
"""

import json
import random
import re

import pytest

import arithdyn as ad
from arithdyn.cli import run
from arithdyn.errors import UnsupportedPlaceError
from arithdyn.fields import parse_place
from arithdyn.residue import residue_field

FIELDS = {
    "Q": ad.QQ,
    "Fp:2": ad.function_field(2),
    "Fp:3": ad.function_field(3),
    "Fp:5": ad.function_field(5),
}

# (field, token, serialize, str, kind, degree, (q, deg) or None)
ROWS = [
    ("Q", "inf", "inf", "inf", "arch", 1, None),
    ("Q", "p:2", "p:2", "(2)", "prime", 1, (2, 1)),
    ("Q", "p:3", "p:3", "(3)", "prime", 1, (3, 1)),
    ("Q", "p:101", "p:101", "(101)", "prime", 1, (101, 1)),
    ("Fp:2", "inf", "inf", "inf", "inf", 1, (2, 1)),
    ("Fp:2", "pi:0,1", "pi:0,1", "(t)", "irreducible", 1, (2, 1)),
    ("Fp:2", "pi:1,1", "pi:1,1", "(t+1)", "irreducible", 1, (2, 1)),
    ("Fp:2", "pi:1,1,1", "pi:1,1,1", "(t^2+t+1)", "irreducible", 2, (4, 2)),
    ("Fp:2", "pi:1,0,1,0,0,1", "pi:1,0,1,0,0,1", "(t^5+t^2+1)", "irreducible", 5, (32, 5)),
    ("Fp:3", "inf", "inf", "inf", "inf", 1, (3, 1)),
    ("Fp:3", "pi:0,1", "pi:0,1", "(t)", "irreducible", 1, (3, 1)),
    ("Fp:3", "pi:2,1", "pi:2,1", "(t+2)", "irreducible", 1, (3, 1)),
    ("Fp:3", "pi:1,0,1", "pi:1,0,1", "(t^2+1)", "irreducible", 2, (9, 2)),
    ("Fp:3", "pi:1,2,0,1", "pi:1,2,0,1", "(t^3+2*t+1)", "irreducible", 3, (27, 3)),
    ("Fp:5", "inf", "inf", "inf", "inf", 1, (5, 1)),
    ("Fp:5", "pi:0,1", "pi:0,1", "(t)", "irreducible", 1, (5, 1)),
    ("Fp:5", "pi:4,1", "pi:4,1", "(t+4)", "irreducible", 1, (5, 1)),
    ("Fp:5", "pi:2,0,1", "pi:2,0,1", "(t^2+2)", "irreducible", 2, (25, 2)),
    ("Fp:5", "pi:1,1,0,1", "pi:1,1,0,1", "(t^3+t+1)", "irreducible", 3, (125, 3)),
]


@pytest.mark.parametrize("row", ROWS, ids=lambda r: f"{r[0]} {r[1]}")
def test_place_is_pinned(row):
    name, token, serialized, shown, kind, degree, residue = row
    pl = parse_place(FIELDS[name], token)
    assert (pl.serialize(), str(pl), pl.kind, pl.degree) == (serialized, shown, kind, degree)
    if residue is None:
        with pytest.raises(UnsupportedPlaceError):
            residue_field(pl)
    else:
        rf = residue_field(pl)
        assert (rf.q, rf.deg) == residue


@pytest.mark.parametrize("row", ROWS, ids=lambda r: f"{r[0]} {r[1]}")
def test_serialized_place_parses_back(row):
    field = FIELDS[row[0]]
    pl = parse_place(field, row[1])
    back = parse_place(field, pl.serialize())
    assert back == pl and hash(back) == hash(pl)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_shuffled_place_set_is_ordered(name):
    # ROWS lists the places of each field in their canonical order
    tokens = [r[1] for r in ROWS if r[0] == name]
    field = FIELDS[name]
    for seed in range(5):
        shuffled = tokens[:]
        random.Random(seed).shuffle(shuffled)
        S = ad.parse_place_set(field, ";".join(shuffled))
        assert [pl.serialize() for pl in S] == tokens
        assert S.serialize() == ";".join(tokens)


def test_constructors_agree_with_the_parser():
    F2 = FIELDS["Fp:2"]
    assert ad.archimedean_place() == parse_place(ad.QQ, "inf")
    assert ad.infinite_place(ad.QQ) == ad.archimedean_place()
    assert ad.infinite_place(F2) == parse_place(F2, "inf")
    assert ad.prime_place(101) == parse_place(ad.QQ, "p:101")
    assert ad.irreducible_place(F2, (1, 1, 1)) == parse_place(F2, "pi:1,1,1")
    assert ad.archimedean_place().is_archimedean
    assert not ad.infinite_place(F2).is_archimedean
    assert ad.archimedean_place() != ad.infinite_place(F2)


# A token with the other field's prefix is a DomainError (exit 2) whatever
# its body holds; a malformed body under the field's own prefix is a usage
# error (exit 1).  Both hold for `graph --place` and `sunit-solve --S`.
WRONG_FIELD = [
    ("Q", "pi:5", "'pi:' places live over F_p(t)"),
    ("Q", "pi:1,1", "'pi:' places live over F_p(t)"),
    ("Q", "pi:a,b", "'pi:' places live over F_p(t)"),
    ("Fp:2", "p:7", "'p:' places live over Q"),
    ("Fp:2", "p:abc", "'p:' places live over Q"),
    ("Fp:3", "p:-1", "'p:' places live over Q"),
]
MALFORMED = [("Q", "p:x"), ("Q", "p:abc"), ("Fp:2", "pi:a,b"), ("Fp:3", "pi:1,x")]


def place_argv(command, name, token):
    if command == "graph":
        return ["graph", "--field", name, "z^2+1", "--place", token]
    return ["sunit-solve", "--field", name, "--a", "1", "--b", "1", "--S", f"inf;{token}",
            "--cap", "1"]


@pytest.mark.parametrize("command", ["graph", "sunit-solve"])
@pytest.mark.parametrize(
    "name, token, message", WRONG_FIELD, ids=[f"{n} {t}" for n, t, _ in WRONG_FIELD]
)
def test_wrong_field_prefix_is_a_domain_error(capsys, command, name, token, message):
    with pytest.raises(ad.DomainError, match=re.escape(message)):
        parse_place(FIELDS[name], token)
    assert run(place_argv(command, name, token)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "DomainError", "message": message}


@pytest.mark.parametrize("command", ["graph", "sunit-solve"])
@pytest.mark.parametrize("name, token", MALFORMED, ids=[f"{n} {t}" for n, t in MALFORMED])
def test_malformed_body_in_the_right_field_is_a_usage_error(capsys, command, name, token):
    with pytest.raises(ValueError):
        parse_place(FIELDS[name], token)
    assert run(place_argv(command, name, token)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"
