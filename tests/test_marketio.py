"""File formats: JSON round trips, mode inference, arctic flattening, CSV."""

import dataclasses
import json
import random
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest

from qfmarket.marketio import (
    ParseError,
    load_market,
    load_market_csv,
    reaggregate,
    serialize_market,
)
from qfmarket.numeric import EXACT, float_mode, number_to_json
from qfmarket.proptest import random_market

F = Fraction


def test_integer_documents_load_exact(fixture_dir):
    text = (fixture_dir / "example2.json").read_text()
    loaded = load_market(text)
    assert loaded.kind == "market"
    assert loaded.market.mode.is_exact
    assert loaded.owners is None
    assert [g.name for g in loaded.market.goods] == ["A", "B"]
    assert loaded.market.buyers[0].values == (F(2), F(3))


def test_float_documents_load_float(fixture_dir):
    loaded = load_market((fixture_dir / "example1.json").read_text())
    assert not loaded.market.mode.is_exact
    assert loaded.market.buyers[0].budget == 0.3


def test_mode_override(fixture_dir):
    loaded = load_market((fixture_dir / "example1.json").read_text(), EXACT)
    assert loaded.market.mode.is_exact
    assert [b.budget for b in loaded.market.buyers] == [F(3, 10), F(1, 5)]


def test_fixture_files_round_trip_byte_for_byte(fixture_dir):
    for name in ("example2.json", "example1.json"):
        text = (fixture_dir / name).read_text()
        assert serialize_market(load_market(text).market) == text


def test_arctic_documents_flatten_to_pseudo_buyers(fixture_dir):
    split = load_market((fixture_dir / "example2_arctic_split.json").read_text())
    assert split.kind == "arctic"
    assert [f.name for f in dataclasses.fields(split)] == ["kind", "market", "owners"]
    assert split.owners == ("owner1", "owner2", "owner3")
    assert [b.name for b in split.market.buyers] == ["owner1#1", "owner2#1", "owner3#1"]
    merged = load_market((fixture_dir / "example2_arctic_merged.json").read_text())
    assert merged.owners == ("pool", "pool", "pool")
    assert [b.name for b in merged.market.buyers] == ["pool#1", "pool#2", "pool#3"]
    # a decoded document yields the same market as its text
    text = (fixture_dir / "example2_arctic_split.json").read_text()
    assert load_market(json.loads(text)).market == split.market


def test_flatten_drops_zero_budget_bids_with_a_warning():
    """The same two bids, one funded and one not, read as arctic JSON and as
    `--kind arctic` CSV."""
    doc = {
        "kind": "arctic",
        "goods": [{"name": "g1", "supply": 1}],
        "bids": [
            {"owner": "x", "vector": [2], "budget": 1},
            {"owner": "y", "vector": [1], "budget": 0},
        ],
    }
    for read in (
        lambda: load_market(json.dumps(doc)),
        lambda: load_market_csv("name,budget,v_1\nx,1,2\ny,0,1\n", ["1"], kind="arctic"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = read()
        assert loaded.kind == "arctic" and loaded.market.mode == EXACT
        assert [b.name for b in loaded.market.buyers] == ["x#1"]
        assert loaded.owners == ("x",)
        assert [str(w.message) for w in caught] == ["dropping zero-budget bid by owner 'y'"]


def test_reaggregate_sums_by_owner_in_first_appearance_order():
    allocation = ((F(1), F(0)), (F(0), F(2)), (F(1), F(1)))
    out = reaggregate(("a", "b", "a"), allocation, (F(1, 2), F(3)))
    assert out == (
        ("a", (F(2), F(1)), F(4)),
        ("b", (F(0), F(2)), F(6)),
    )
    with pytest.raises(Exception):
        reaggregate(("a",), allocation, (F(1), F(1)))


@pytest.mark.parametrize(
    "label,doc",
    [
        ("not json", "xx{"),
        ("top level", "[1]"),
        ("kind", {"goods": [], "buyers": []}),
        ("empty goods", {"kind": "market", "goods": [], "buyers": [{"name": "b", "values": [], "budget": 1}]}),
        ("negative supply", {"kind": "market", "goods": [{"name": "A", "supply": -1}], "buyers": [{"name": "b", "values": [1], "budget": 1}]}),
        ("values arity", {"kind": "market", "goods": [{"name": "A", "supply": 1}], "buyers": [{"name": "b", "values": [1, 2], "budget": 1}]}),
        ("negative budget", {"kind": "market", "goods": [{"name": "A", "supply": 1}], "buyers": [{"name": "b", "values": [1], "budget": -1}]}),
        ("nonzero costs", {"kind": "market", "goods": [{"name": "A", "supply": 1}], "buyers": [{"name": "b", "values": [1], "budget": 1}], "costs": [2]}),
        ("unfunded bid", {"kind": "arctic", "goods": [{"name": "A", "supply": 1}], "bids": [{"owner": "o", "vector": [0], "budget": 1}]}),
        ("empty bids", {"kind": "arctic", "goods": [{"name": "A", "supply": 1}], "bids": []}),
        ("infinite supply", {"kind": "market", "goods": [{"name": "A", "supply": float("inf")}], "buyers": [{"name": "b", "values": [1], "budget": 1}]}),
        ("infinite value", {"kind": "market", "goods": [{"name": "A", "supply": 1}, {"name": "B", "supply": 1}], "buyers": [{"name": "b", "values": [2.0, float("inf")], "budget": 1}]}),
        ("nan budget", {"kind": "market", "goods": [{"name": "A", "supply": 1}], "buyers": [{"name": "b", "values": [1], "budget": float("nan")}]}),
        ("beyond float range", {"kind": "market", "goods": [{"name": "A", "supply": 1.5}], "buyers": [{"name": "b", "values": [1], "budget": "1e400"}]}),
        ("unhashable kind", {"kind": ["market"], "goods": [], "buyers": []}),
        ("row not an object", {"kind": "market", "goods": [{"name": "A", "supply": 1}], "buyers": [{"name": "b", "values": [1], "budget": 1}, 3]}),
        ("row without a name", {"kind": "market", "goods": [{"name": "A", "supply": 1}], "buyers": [{"name": "b", "values": [1], "budget": 1}, {"values": [1], "budget": 1}]}),
        ("values not an array", {"kind": "market", "goods": [{"name": "A", "supply": 1}], "buyers": [{"name": "b", "values": "1", "budget": 1}]}),
        ("negative value", {"kind": "market", "goods": [{"name": "A", "supply": 1}, {"name": "B", "supply": 1}], "buyers": [{"name": "a", "values": [1, 1], "budget": 1}, {"name": "b", "values": [1, -2], "budget": 1}]}),
        ("bad value", {"kind": "market", "goods": [{"name": "A", "supply": 1}], "buyers": [{"name": "b", "values": ["1/0"], "budget": 1}]}),
        ("negative before bad value", {"kind": "market", "goods": [{"name": "A", "supply": 1}, {"name": "B", "supply": 1}], "buyers": [{"name": "b", "values": [-1, "x"], "budget": 1}]}),
        ("negative bid value", {"kind": "arctic", "goods": [{"name": "A", "supply": 1}, {"name": "B", "supply": 1}], "bids": [{"owner": "o", "vector": [1, -1], "budget": 1}]}),
        ("bad budget", {"kind": "market", "goods": [{"name": "A", "supply": 1}], "buyers": [{"name": "b", "values": [1], "budget": 1}, {"name": "c", "values": [1], "budget": "one"}]}),
    ],
)
def test_parse_errors(label, doc):
    """Each refusal's whole message, its path included."""
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(ParseError) as refused:
        load_market(text)
    assert str(refused.value) == _PARSE_ERRORS[label]


_PARSE_ERRORS = {
    "not json": "$: not valid JSON: Expecting value: line 1 column 1 (char 0)",
    "top level": "$: top level must be an object",
    "kind": 'kind: expected "market" or "arctic"',
    "empty goods": "goods: need a nonempty array",
    "negative supply": "goods[0].supply: supply must be nonnegative",
    "values arity": "buyers[0].values: expected 1 entries, got 2",
    "negative budget": "buyers[0].budget: budget must be nonnegative",
    "nonzero costs": "costs[0]: nonzero seller costs are out of scope; remove the costs field",
    "unfunded bid": "bids[0]: a funded bid needs at least one positive value",
    "empty bids": "bids: need a nonempty array",
    "infinite supply": "goods[0].supply: non-finite number inf",
    "infinite value": "buyers[0].values[1]: non-finite number inf",
    "nan budget": "buyers[0].budget: non-finite number nan",
    "beyond float range": "buyers[0].budget: number '1e400' is beyond the float range",
    "unhashable kind": 'kind: expected "market" or "arctic"',
    "row not an object": "buyers[1]: expected an object",
    "row without a name": "buyers[1].name: need a nonempty string",
    "values not an array": "buyers[0].values: expected an array",
    "negative value": "buyers[1].values[1]: values must be nonnegative",
    "bad value": "buyers[0].values[0]: bad numeric literal '1/0'",
    # The first token refused in row order, though a later one fails to parse.
    "negative before bad value": "buyers[0].values[0]: values must be nonnegative",
    "negative bid value": "bids[0].vector[1]: values must be nonnegative",
    "bad budget": "buyers[1].budget: bad numeric literal 'one'",
}


def test_load_market_refuses_a_document_with_no_funded_bid():
    """Every bid has a zero budget: each is dropped with its warning, and
    then the document is refused, as the CSV table is at `csv.row`."""
    doc = {
        "kind": "arctic",
        "goods": [{"name": "A", "supply": 1}],
        "bids": [{"owner": "o", "vector": [1], "budget": 0}, {"owner": "p", "vector": [2], "budget": 0}],
    }
    for read, message in (
        (lambda: load_market(json.dumps(doc)), "bids: no funded bid: every bid has a zero budget"),
        (lambda: load_market_csv("name,budget,v_1\no,0,1\np,0,2\n", ["1"], kind="arctic"),
         "csv.row: no funded bid: every bid has a zero budget"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError) as refused:
                read()
        assert str(refused.value) == message
        assert [str(w.message) for w in caught] == [
            "dropping zero-budget bid by owner 'o'",
            "dropping zero-budget bid by owner 'p'",
        ]


def test_zero_costs_are_tolerated():
    doc = {
        "kind": "market",
        "goods": [{"name": "A", "supply": 1}],
        "buyers": [{"name": "b", "values": [1], "budget": 1}],
        "costs": [0],
    }
    assert load_market(json.dumps(doc)).market.n == 1


def test_csv_loader_happy_path():
    text = "name,budget,v_1,v_2\nb1,1,2,3\nb2,1,2,2\nb3,1,4,2\n"
    loaded = load_market_csv(text, ["3", "2"])
    assert loaded.market.mode.is_exact
    assert [g.name for g in loaded.market.goods] == ["g1", "g2"]
    assert loaded.market.supplies == (F(3), F(2))
    assert loaded.market.buyers[2].values == (F(4), F(2))


def test_csv_loader_mode_override_and_arctic_kind():
    text = "name,budget,v_1\no,1,2\no,2,3\n"
    floaty = load_market_csv(text, ["1"], mode=float_mode())
    assert isinstance(floaty.market.buyers[0].budget, float)
    arctic = load_market_csv(text, ["1"], kind="arctic")
    assert arctic.owners == ("o", "o")
    assert [b.name for b in arctic.market.buyers] == ["o#1", "o#2"]


def test_fraction_tokens_read_as_exact():
    """Fractions handed in through the API are exact tokens, like ints and
    strings; one used to switch the whole input to float mode."""
    loaded = load_market_csv("name,budget,v_1\nb,1,1/3\n", [F(1, 3)])
    assert loaded.market.mode == EXACT
    assert loaded.market.supplies == (F(1, 3),)
    assert loaded.market.buyers[0].values == (F(1, 3),)
    doc = {
        "kind": "market",
        "goods": [{"name": "A", "supply": F(1, 3)}],
        "buyers": [{"name": "b", "values": [1], "budget": 1}],
    }
    assert load_market(doc).market.mode == EXACT


@pytest.mark.parametrize(
    "text,supplies",
    [
        ("name,b,v_1\nb1,1,2\n", ["1"]),  # bad header
        ("name,budget,v_1\nb1,1,2\n", ["1", "2"]),  # supply count mismatch
        ("name,budget,v_1,v_2\nb1,1,2\n", ["1", "1"]),  # short row
        ("", ["1"]),  # empty file
        ("name,budget,v_1\n", ["1"]),  # header only
        ("name,budget,v_1\nb1,-1,2\n", ["1"]),  # negative budget
        ("name,budget,v_1,v_2\nb1,1,2,3\nb2,1,2,-3\n", ["1", "1"]),  # negative value
        ("name,budget,v_1\n ,1,2\n", ["1"]),  # blank name
        ("name,budget,v_1\nb1,1,2\nb2,1,x\n", ["1"]),  # bad value
    ],
)
def test_csv_loader_errors(text, supplies):
    """Each refusal's whole message, its path included."""
    with pytest.raises(ParseError) as refused:
        load_market_csv(text, supplies)
    assert str(refused.value) == _CSV_ERRORS[text]


_CSV_ERRORS = {
    "name,b,v_1\nb1,1,2\n": "csv.header: expected name,budget,v_1,...,v_n",
    "name,budget,v_1\nb1,1,2\n": "csv: 1 value columns but 2 supplies given",
    "name,budget,v_1,v_2\nb1,1,2\n": "csv.row[1]: expected 4 cells, got 3",
    "": "csv: empty input",
    "name,budget,v_1\n": "csv: no data rows",
    "name,budget,v_1\nb1,-1,2\n": "csv.row[1].budget: budget must be nonnegative",
    "name,budget,v_1,v_2\nb1,1,2,3\nb2,1,2,-3\n": "csv.row[2].v_2: values must be nonnegative",
    "name,budget,v_1\n ,1,2\n": "csv.row[1]: need a nonempty name",
    "name,budget,v_1\nb1,1,2\nb2,1,x\n": "csv.row[2].v_1: bad numeric literal 'x'",
}


def test_csv_arctic_rows_follow_the_funded_bid_rule():
    """A funded bid with no positive value is an error from CSV as from JSON;
    as a market row, or with a zero budget, the same values are accepted."""
    with pytest.raises(ParseError, match="funded bid"):
        load_market_csv("name,budget,v_1\no,1,0\n", ["1"], kind="arctic")
    assert load_market_csv("name,budget,v_1\no,1,0\n", ["1"]).market.m == 1
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        loaded = load_market_csv("name,budget,v_1\no,1,2\no,0,0\n", ["1"], kind="arctic")
    assert loaded.owners == ("o",)


def _csv_table(market):
    lines = ["name,budget," + ",".join(f"v_{j + 1}" for j in range(market.n))]
    for b in market.buyers:
        numbers = [str(number_to_json(x)) for x in (b.budget, *b.values)]
        lines.append(",".join([b.name, *numbers]))
    return "\n".join(lines) + "\n"


def test_every_format_reads_the_same_market():
    """Market JSON, arctic JSON with one bid per owner, and CSV of either kind
    load to the same goods, values, budgets and inferred mode."""
    rng = random.Random(3)
    for market in [random_market(rng, 8, 5) for _ in range(3)]:
        arctic = {
            "kind": "arctic",
            "goods": [{"name": g.name, "supply": number_to_json(g.supply)} for g in market.goods],
            "bids": [
                {
                    "owner": b.name,
                    "vector": [number_to_json(v) for v in b.values],
                    "budget": number_to_json(b.budget),
                }
                for b in market.buyers
            ],
        }
        supplies = [str(number_to_json(s)) for s in market.supplies]
        loads = [
            load_market(serialize_market(market)),
            load_market(json.dumps(arctic)),
            load_market_csv(_csv_table(market), supplies),
            load_market_csv(_csv_table(market), supplies, kind="arctic"),
        ]
        for loaded in loads:
            assert loaded.market.goods == market.goods
            assert [(b.values, b.budget) for b in loaded.market.buyers] == [
                (b.values, b.budget) for b in market.buyers
            ]
            assert loaded.market.mode == EXACT
        assert [loaded.kind for loaded in loads] == ["market", "arctic", "market", "arctic"]


# Each token kind of the loader, handed in as a decoded document so that
# Fractions, nan and inf arrive as Python objects.
_TOKENS = {
    "float": 0.75,
    "zero": 0.0,
    "negative zero": -0.0,
    "subnormal": 5e-324,
    "largest float": sys.float_info.max,
    "int": 3,
    "huge int": 10**400,
    "ratio string": "3/5",
    "decimal string": "0.25",
    "Fraction": F(3, 5),
    "bool": True,
    "None": None,
    "negative float": -1.0,
    "nan": float("nan"),
    "inf": float("inf"),
}

_NONNEGATIVE = "{path}: {what} must be nonnegative"

# Per token kind and mode (None infers it): the number the token loads to, or
# the refusal's whole message, {path} and {what} naming the token's slot.
_LOADED = {
    "float": {None: 0.75, "float": 0.75, "exact": F(3, 4)},
    "zero": {None: 0.0, "float": 0.0, "exact": F(0)},
    "negative zero": {None: -0.0, "float": -0.0, "exact": F(0)},
    "subnormal": {None: 5e-324, "float": 5e-324, "exact": F(Decimal("5e-324"))},
    "largest float": {
        None: sys.float_info.max,
        "float": sys.float_info.max,
        "exact": F(Decimal(repr(sys.float_info.max))),
    },
    "int": {None: F(3), "float": 3.0, "exact": F(3)},
    "huge int": {
        None: F(10**400),
        "float": "{path}: number " + repr(10**400) + " is beyond the float range",
        "exact": F(10**400),
    },
    "ratio string": {None: F(3, 5), "float": 0.6, "exact": F(3, 5)},
    "decimal string": {None: F(1, 4), "float": 0.25, "exact": F(1, 4)},
    "Fraction": {None: F(3, 5), "float": 0.6, "exact": F(3, 5)},
    "bool": dict.fromkeys((None, "float", "exact"), "{path}: bad numeric literal True"),
    "None": dict.fromkeys((None, "float", "exact"), "{path}: bad numeric literal None"),
    "negative float": dict.fromkeys((None, "float", "exact"), _NONNEGATIVE),
    "nan": dict.fromkeys((None, "float", "exact"), "{path}: non-finite number nan"),
    "inf": dict.fromkeys((None, "float", "exact"), "{path}: non-finite number inf"),
}

# Where a token goes: its path, the name a refusal gives it, and where the
# loaded market holds it.
_SLOTS = {
    "value": ("buyers[0].values[1]", "values", lambda m: m.buyers[0].values[1]),
    "budget": ("buyers[0].budget", "budget", lambda m: m.buyers[0].budget),
    "supply": ("goods[1].supply", "supply", lambda m: m.goods[1].supply),
}


def _document(slot, token):
    doc = {
        "kind": "market",
        "goods": [{"name": "A", "supply": 2}, {"name": "B", "supply": 3}],
        "buyers": [
            {"name": "b", "values": [1, 2], "budget": 1},
            {"name": "c", "values": [3, 1], "budget": 2},
        ],
    }
    if slot == "value":
        doc["buyers"][0]["values"][1] = token
    elif slot == "budget":
        doc["buyers"][0]["budget"] = token
    else:
        doc["goods"][1]["supply"] = token
    return doc


def _numbers(market):
    return [g.supply for g in market.goods] + [
        x for b in market.buyers for x in (*b.values, b.budget)
    ]


@pytest.mark.parametrize("slot", sorted(_SLOTS))
@pytest.mark.parametrize("mode", [None, "float", "exact"])
@pytest.mark.parametrize("kind", list(_TOKENS))
def test_each_token_kind_loads_to_its_number_or_its_refusal(kind, mode, slot):
    """Every token kind at a value, a budget and a supply, read with no mode
    (exact unless some token is a float), in floats and exactly: the loaded
    numbers are the expected ones, type and sign included, or the refusal
    is the expected whole message."""
    path, what, read = _SLOTS[slot]
    expected = _LOADED[kind][mode]
    numeric_mode = {None: None, "float": float_mode(), "exact": EXACT}[mode]
    doc = _document(slot, _TOKENS[kind])
    if isinstance(expected, str):
        with pytest.raises(ParseError) as refused:
            load_market(doc, numeric_mode)
        assert str(refused.value) == expected.format(path=path, what=what)
        return
    market = load_market(doc, numeric_mode).market
    got = read(market)
    assert (type(got), repr(got)) == (type(expected), repr(expected))
    assert market.mode == (float_mode() if type(expected) is float else EXACT)
    rest = [x for x in _numbers(market) if x is not got]
    assert {type(x) for x in rest} == {type(expected)}
    base = load_market(_document(slot, 1), market.mode).market
    assert [x for x in _numbers(base) if x is not read(base)] == rest
