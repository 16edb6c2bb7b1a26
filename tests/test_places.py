"""Pinned places: every observable of a place over Q, F_2(t), F_3(t) and F_5(t).

A place is read by its token, and each row pins what the library shows of
it: `serialize`, `str`, `kind`, `degree`, `residue_size`, and the size q
and degree of `residue_field(place)` (the archimedean place has no residue
field).  The order of a place set and the round trip through `parse_place`
are pinned too, so a change to how places are stored cannot move any of it.
"""

import random

import pytest

import arithdyn as ad
from arithdyn.errors import UnsupportedPlaceError
from arithdyn.fields import parse_place
from arithdyn.residue import residue_field

FIELDS = {
    "Q": ad.QQ,
    "Fp:2": ad.function_field(2),
    "Fp:3": ad.function_field(3),
    "Fp:5": ad.function_field(5),
}

# (field, token, serialize, str, kind, degree, (residue_size, q, deg) or None)
ROWS = [
    ("Q", "inf", "inf", "inf", "arch", 1, None),
    ("Q", "p:2", "p:2", "(2)", "prime", 1, (2, 2, 1)),
    ("Q", "p:3", "p:3", "(3)", "prime", 1, (3, 3, 1)),
    ("Q", "p:101", "p:101", "(101)", "prime", 1, (101, 101, 1)),
    ("Fp:2", "inf", "inf", "inf", "inf", 1, (2, 2, 1)),
    ("Fp:2", "pi:0,1", "pi:0,1", "(t)", "irreducible", 1, (2, 2, 1)),
    ("Fp:2", "pi:1,1", "pi:1,1", "(t+1)", "irreducible", 1, (2, 2, 1)),
    ("Fp:2", "pi:1,1,1", "pi:1,1,1", "(t^2+t+1)", "irreducible", 2, (4, 4, 2)),
    ("Fp:2", "pi:1,0,1,0,0,1", "pi:1,0,1,0,0,1", "(t^5+t^2+1)", "irreducible", 5, (32, 32, 5)),
    ("Fp:3", "inf", "inf", "inf", "inf", 1, (3, 3, 1)),
    ("Fp:3", "pi:0,1", "pi:0,1", "(t)", "irreducible", 1, (3, 3, 1)),
    ("Fp:3", "pi:2,1", "pi:2,1", "(t+2)", "irreducible", 1, (3, 3, 1)),
    ("Fp:3", "pi:1,0,1", "pi:1,0,1", "(t^2+1)", "irreducible", 2, (9, 9, 2)),
    ("Fp:3", "pi:1,2,0,1", "pi:1,2,0,1", "(t^3+2*t+1)", "irreducible", 3, (27, 27, 3)),
    ("Fp:5", "inf", "inf", "inf", "inf", 1, (5, 5, 1)),
    ("Fp:5", "pi:0,1", "pi:0,1", "(t)", "irreducible", 1, (5, 5, 1)),
    ("Fp:5", "pi:4,1", "pi:4,1", "(t+4)", "irreducible", 1, (5, 5, 1)),
    ("Fp:5", "pi:2,0,1", "pi:2,0,1", "(t^2+2)", "irreducible", 2, (25, 25, 2)),
    ("Fp:5", "pi:1,1,0,1", "pi:1,1,0,1", "(t^3+t+1)", "irreducible", 3, (125, 125, 3)),
]


@pytest.mark.parametrize("row", ROWS, ids=lambda r: f"{r[0]} {r[1]}")
def test_place_is_pinned(row):
    name, token, serialized, shown, kind, degree, residue = row
    pl = parse_place(FIELDS[name], token)
    assert (pl.serialize(), str(pl), pl.kind, pl.degree) == (serialized, shown, kind, degree)
    if residue is None:
        with pytest.raises(UnsupportedPlaceError):
            pl.residue_size()
        with pytest.raises(UnsupportedPlaceError):
            residue_field(pl)
    else:
        rf = residue_field(pl)
        assert (pl.residue_size(), rf.q, rf.deg) == residue


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
