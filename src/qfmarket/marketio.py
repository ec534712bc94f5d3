"""Market and arctic bid document formats.

One JSON schema with a discriminating `kind` field carries both plain markets
and arctic bid documents:

    { "kind": "market" | "arctic",
      "goods":  [ {"name": str, "supply": num|"p/q"} ],
      "buyers": [ {"name": str, "values": [...], "budget": num|"p/q"} ],
      "bids":   [ {"owner": str, "vector": [...], "budget": num|"p/q"} ] }

A CSV alternative with header `name,budget,v_1,...,v_n` covers the buyer
(or bid) table only; supplies must be given separately.

Each format's reader checks only the structure of its input and hands raw
tokens to one builder: goods as `(path, name, supply)`, rows as
`(k, name, budget, [value, ...])`, any seller costs, and how the format names
the rows and their values; a row's paths are built only for an error. The
builder infers the numeric mode, parses every number, and builds the market
the same way whatever the format. Numbers may be written as JSON numbers or as
strings ("3/5", "0.25"); inputs built in Python may also hand in Fractions.
When every numeric token is an integer, a string or a Fraction, the input is
read in exact rational mode; a single raw float switches the whole input to
float mode. Every number must be nonnegative, and a funded bid
(an arctic row with a positive budget) needs at least one positive value. An
arctic document is read straight into a market with one pseudo-buyer
`owner#k` per funded bid, k counting that owner's funded bids; zero-budget
bids are dropped with a warning, and a document with no funded bid is
refused. The owner of each pseudo-buyer is kept so reports can re-aggregate.
Only markets are written back (`serialize_market`): bid documents are
read-only.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from .market import Buyer, Good, Market, MarketError
from .numeric import EXACT, Number, NumericMode, float_mode, number_to_json, parse_number

__all__ = [
    "LoadedMarket",
    "ParseError",
    "load_market",
    "load_market_csv",
    "reaggregate",
    "serialize_market",
]

KIND_MARKET = "market"
KIND_ARCTIC = "arctic"

# Per kind: the key of the row array, and each row's name and vector keys.
_ROW_KEYS = {
    KIND_MARKET: ("buyers", "name", "values"),
    KIND_ARCTIC: ("bids", "owner", "vector"),
}


class ParseError(MarketError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class LoadedMarket:
    kind: str
    market: Market
    owners: Optional[Tuple[str, ...]]  # set for arctic inputs


def _require(condition, path, message):
    if not condition:
        raise ParseError(path, message)


def _token_is_exact(token) -> bool:
    return isinstance(token, (int, str, Fraction)) and not isinstance(token, bool)


def _number(token, mode, path, what=None) -> Number:
    """Parse one token; when `what` names it, it must be nonnegative. path()
    builds the token's path, only for an error. A float token in float mode
    is taken after one range test; every other token, and a float that
    fails the test, is parse_number's."""
    if type(token) is float and 0.0 <= token < math.inf and not mode.is_exact:
        return token
    try:
        value = parse_number(token, mode)
    except ValueError as exc:
        raise ParseError(path(), str(exc)) from None
    if what is not None and value < 0:
        raise ParseError(path(), f"{what} must be nonnegative")
    return value


def _build(kind, goods, rows, costs, mode: Optional[NumericMode], rows_path: str,
           value_path: Callable[[int, int], str]) -> LoadedMarket:
    """Market, or arctic pseudo-buyers with their owners, from checked tokens.

    `goods` holds `(path, name, supply)`, `rows` holds `(k, name, budget,
    [value, ...])` and `costs` holds `(path, cost)`. Row k's path is
    `rows_path[k]` and value_path(k, j) is its value j's; both are built only
    for an error. With no `mode`, it is exact unless some token is a raw
    float; the scan stops there. An arctic input with no funded bid left is
    refused at `rows_path`, after the warnings of the bids it dropped.
    """
    if mode is None:
        tokens = itertools.chain(
            (supply for _, _, supply in goods),
            (t for _, _, budget, values in rows for t in (budget, *values)),
            (cost for _, cost in costs),
        )
        exact = all(_token_is_exact(t) for t in tokens if t is not None)
        mode = EXACT if exact else float_mode()
    for path, cost in costs:
        _require(
            _number(cost, mode, lambda: path) == 0,
            path,
            "nonzero seller costs are out of scope; remove the costs field",
        )
    parsed_goods = tuple(
        Good(name, _number(supply, mode, lambda: path, "supply")) for path, name, supply in goods
    )
    entries = []
    for k, name, budget, values in rows:
        vector = tuple([
            _number(v, mode, lambda: value_path(k, j), "values") for j, v in enumerate(values)
        ])
        budget = _number(budget, mode, lambda: f"{rows_path}[{k}].budget", "budget")
        if not (kind == KIND_MARKET or budget == 0 or any(v > 0 for v in vector)):
            raise ParseError(f"{rows_path}[{k}]", "a funded bid needs at least one positive value")
        entries.append((name, vector, budget))
    if kind == KIND_MARKET:
        buyers = tuple(Buyer(name, vector, budget) for name, vector, budget in entries)
        return LoadedMarket(kind, Market(parsed_goods, buyers, mode), None)
    buyers, owners, funded = [], [], {}
    for owner, vector, budget in entries:
        if budget == 0:
            warnings.warn(f"dropping zero-budget bid by owner {owner!r}")
            continue
        funded[owner] = funded.get(owner, 0) + 1
        buyers.append(Buyer(f"{owner}#{funded[owner]}", vector, budget))
        owners.append(owner)
    _require(buyers, rows_path, "no funded bid: every bid has a zero budget")
    return LoadedMarket(kind, Market(parsed_goods, tuple(buyers), mode), tuple(owners))


def reaggregate(owners: Sequence[str], allocation, prices):
    """Combine pseudo-buyer bundles back into per-owner bundles and spends.

    Owners are reported in first-appearance order; each gets the sum of its
    bids' bundles and the money those bundles cost at `prices`.
    """
    if len(owners) != len(allocation):
        raise MarketError("owner map and allocation sizes differ")
    order = []
    bundles = {}
    for owner, bundle in zip(owners, allocation):
        if owner not in bundles:
            order.append(owner)
            bundles[owner] = list(bundle)
        else:
            for k, qty in enumerate(bundle):
                bundles[owner][k] = bundles[owner][k] + qty
    out = []
    for owner in order:
        bundle = tuple(bundles[owner])
        spend = 0
        for price, qty in zip(prices, bundle):
            spend = spend + price * qty
        out.append((owner, bundle, spend))
    return tuple(out)


def _as_object(source) -> dict:
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError("$", f"not valid JSON: {exc}") from None
    _require(isinstance(source, dict), "$", "top level must be an object")
    return source


def load_market(source, mode: Optional[NumericMode] = None) -> LoadedMarket:
    """Market or arctic document from JSON text, bytes, or a decoded object."""
    obj = _as_object(source)
    kind = obj.get("kind")
    _require(kind in (KIND_MARKET, KIND_ARCTIC), "kind", 'expected "market" or "arctic"')
    costs_raw = obj.get("costs")
    _require(costs_raw is None or isinstance(costs_raw, list), "costs", "expected an array")
    goods_raw = obj.get("goods")
    _require(isinstance(goods_raw, list) and goods_raw, "goods", "need a nonempty array")
    goods = []
    for k, entry in enumerate(goods_raw):
        path = f"goods[{k}]"
        _require(isinstance(entry, dict), path, "expected an object")
        name = entry.get("name")
        _require(isinstance(name, str) and name, f"{path}.name", "need a nonempty string")
        goods.append((f"{path}.supply", name, entry.get("supply")))
    key, name_key, vec_key = _ROW_KEYS[kind]
    rows_raw = obj.get(key)
    _require(isinstance(rows_raw, list) and rows_raw, key, "need a nonempty array")
    rows = []
    for k, entry in enumerate(rows_raw):
        if not isinstance(entry, dict):
            raise ParseError(f"{key}[{k}]", "expected an object")
        name = entry.get(name_key)
        if not (isinstance(name, str) and name):
            raise ParseError(f"{key}[{k}].{name_key}", "need a nonempty string")
        vec_raw = entry.get(vec_key)
        if not isinstance(vec_raw, list):
            raise ParseError(f"{key}[{k}].{vec_key}", "expected an array")
        if len(vec_raw) != len(goods):
            message = f"expected {len(goods)} entries, got {len(vec_raw)}"
            raise ParseError(f"{key}[{k}].{vec_key}", message)
        rows.append((k, name, entry.get("budget"), vec_raw))
    costs = [(f"costs[{j}]", c) for j, c in enumerate(costs_raw or ())]
    return _build(
        kind, goods, rows, costs, mode, key, lambda k, j: f"{key}[{k}].{vec_key}[{j}]"
    )


def serialize_market(market: Market) -> str:
    """The `market` JSON document of a market, in the fixtures' layout."""
    obj = {
        "kind": KIND_MARKET,
        "goods": [{"name": g.name, "supply": number_to_json(g.supply)} for g in market.goods],
        "buyers": [
            {
                "name": b.name,
                "values": [number_to_json(v) for v in b.values],
                "budget": number_to_json(b.budget),
            }
            for b in market.buyers
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def load_market_csv(
    text: str,
    supplies: Sequence,
    kind: str = KIND_MARKET,
    mode: Optional[NumericMode] = None,
) -> LoadedMarket:
    """Buyer (or bid) table from CSV with header name,budget,v_1,...,v_n.

    The CSV carries no supplies, so they are passed separately and must match
    the value columns in number. Goods are named g1..gn.
    """
    _require(kind in (KIND_MARKET, KIND_ARCTIC), "kind", 'expected "market" or "arctic"')
    table = list(csv.reader(io.StringIO(text)))
    _require(bool(table), "csv", "empty input")
    header = [h.strip() for h in table[0]]
    n = len(header) - 2
    _require(
        n >= 1 and header[0] == "name" and header[1] == "budget"
        and header[2:] == [f"v_{j + 1}" for j in range(n)],
        "csv.header",
        "expected name,budget,v_1,...,v_n",
    )
    _require(
        len(supplies) == n,
        "csv",
        f"{n} value columns but {len(supplies)} supplies given",
    )
    body = [r for r in table[1:] if r and any(cell.strip() for cell in r)]
    _require(bool(body), "csv", "no data rows")
    goods = [(f"supply[{j}]", f"g{j + 1}", s) for j, s in enumerate(supplies)]
    rows = []
    for k, r in enumerate(body, start=1):
        if len(r) != n + 2:
            raise ParseError(f"csv.row[{k}]", f"expected {n + 2} cells, got {len(r)}")
        name = r[0].strip()
        if not name:
            raise ParseError(f"csv.row[{k}]", "need a nonempty name")
        rows.append((k, name, r[1].strip(), [cell.strip() for cell in r[2:]]))
    return _build(kind, goods, rows, (), mode, "csv.row", lambda k, j: f"csv.row[{k}].v_{j + 1}")
