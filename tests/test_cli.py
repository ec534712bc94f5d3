"""Command-line interface: reports, exit codes, files, reproducibility."""

import contextlib
import errno
import hashlib
import io
import json
import os
import stat
import subprocess
import sys

import pytest

from qfmarket import solver
from qfmarket.cli import EXIT_DISAGREE, EXIT_INPUT, EXIT_OK, build_parser, main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_solve_report_exact(fixture_dir):
    code, out, err = run_cli("solve", str(fixture_dir / "example2.json"), "--no-timestamp")
    assert code == EXIT_OK and err == ""
    report = json.loads(out)
    assert report["command"] == "solve"
    assert report["mode"] == "exact"
    assert report["p_star"] == ["3/5", "3/5"]
    assert report["revenue"] == 3
    assert report["welfare"] == 15
    assert report["aggregate"] == [3, 2]
    assert report["goods"] == ["A", "B"]
    assert report["certificates"]["clearing"]["clearing"] is True
    assert report["certificates"]["efficiency"]["verdict"] == "certified-CE-hence-efficient"
    assert len(report["input"]["sha256"]) == 64
    assert report["diagnostics"]["certified_by"] == "rounding"
    assert report["diagnostics"]["descent_probes"] == 0
    assert list(report) == [
        "command", "input", "mode", "goods", "p_star", "buyers", "allocation",
        "aggregate", "revenue", "welfare", "certificates", "diagnostics",
    ]
    assert list(report["diagnostics"]) == [
        "method_agreement", "eg_duality_gap", "eg_iterations",
        "descent_steps", "descent_probes", "certified_by",
    ]


def test_solve_reports_are_reproducible(fixture_dir):
    first = run_cli("solve", str(fixture_dir / "example2.json"), "--no-timestamp")
    second = run_cli("solve", str(fixture_dir / "example2.json"), "--no-timestamp")
    assert first == second


# sha256 of each fixture's `solve --no-timestamp` report, its input path
# written as the bare file name.
_SOLVE_REPORT_PINS = {
    ("example1.json", "exact"): "2370b95687e043f8438a6a8aeb9fadbd74f405137ebc883a7d18e25157c480d9",
    ("example1.json", "float"): "f21e593d3888467d3166cc34ad5e2035d4a92743be7e3c364fa19fe712df884c",
    ("example2.json", "exact"): "d7ee8152db32436189abdb09197f1c49f762593786c0033a8815526da114a64b",
    ("example2.json", "float"): "837313b7f6e327e03848285ed21378f626445c374c05dc8c7e21aa9defa1c5d9",
    ("example2_arctic_merged.json", "exact"):
        "df6cfe258ffaf4a39fb98364f06492fb4f317dc345d240ceafcdbac4ee6586ba",
    ("example2_arctic_merged.json", "float"):
        "c6c8739d40c5cdaca30ab16f63f5c137916ed4272017b4a49ebda10d114b205d",
    ("example2_arctic_split.json", "exact"):
        "b5a951b7e202b2744a724ec65fadb97a75f9b73e18d16f68ab26e415bded2da0",
    ("example2_arctic_split.json", "float"):
        "75734d22d2644ddbf8b5a9ee481d0c1cba034182e8119e2cc3e8eb7e2c0aad9a",
}


@pytest.mark.parametrize("name, mode", sorted(_SOLVE_REPORT_PINS))
def test_solve_reports_are_pinned(fixture_dir, name, mode):
    path = fixture_dir / name
    code, out, _ = run_cli("solve", str(path), "--mode", mode, "--no-timestamp")
    assert code == EXIT_OK
    report = out.replace(json.dumps(str(path)), json.dumps(name))
    assert hashlib.sha256(report.encode()).hexdigest() == _SOLVE_REPORT_PINS[name, mode]


# sha256 of other `--no-timestamp` reports, example2's path written as the
# bare file name and region's temporary directory as TMP.
_REPORT_PINS = {
    "check-price-infeasible": (
        ["check-price", "example2.json", "--price", "1/2,1/2"],
        "1d1a7c35b5d14d61d36c288611ac2e9d5638a435b756976e57d98644f2ff594a",
    ),
    "check-price-float": (
        ["check-price", "example2.json", "--price", "3/5,3/5", "--mode", "float"],
        "a246da7aeae9aa8cb491a2aae1e377a27149d07faece561e13136153d30b1247",
    ),
    "region-41": (
        ["region", "example2.json", "--bounds", "0.4:3.2", "--resolution", "41"],
        "6d07e6a4115f7013e6bc5e7faa0116815c4d2126103dbc40c17e97f903a66775",
    ),
    "region-21-exact": (
        ["region", "example2.json", "--bounds", "0.4:3.2", "--resolution", "21", "--mode", "exact"],
        "5e2cf1cf870f633c34c0137055c62360f7036eb18912269f82a300aefb99579f",
    ),
    "monopoly-curved": (
        ["monopoly", "--valuation", "example-a1", "--supply", "3", "--budget", "2"],
        "73a8c5bb535e0aef7a3bd624422c2974a4bbf3e419c495ed023a29b7142bd6fe",
    ),
    "monopoly-linear": (
        ["monopoly", "--valuation", "linear:5", "--supply", "3"],
        "501b878ff6c19e3bfa51f3200101629245c4f1e06f04fda3c55f99cb85070972",
    ),
    "proptest": (
        ["proptest", "--markets", "2", "--pairs", "10"],
        "ff28131f7bbc3e2c6257a8457bf2c895b3837ae84e471c43ecb4c6357c6c969d",
    ),
}


@pytest.mark.parametrize("name", sorted(_REPORT_PINS))
def test_reports_are_pinned(fixture_dir, tmp_path, name):
    argv, pin = _REPORT_PINS[name]
    path = fixture_dir / "example2.json"
    argv = [str(path) if arg == "example2.json" else arg for arg in argv]
    if argv[0] == "region":
        argv += ["--out", str(tmp_path / "grid.csv")]
    code, out, _ = run_cli(*argv, "--no-timestamp")
    assert code == EXIT_OK
    report = out.replace(json.dumps(str(path)), json.dumps("example2.json"))
    report = report.replace(str(tmp_path), "TMP")
    assert hashlib.sha256(report.encode()).hexdigest() == pin


def test_solve_float_mode(fixture_dir):
    code, out, _ = run_cli(
        "solve", str(fixture_dir / "example2.json"), "--mode", "float", "--no-timestamp"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mode"] == "float"
    assert report["p_star"] == [0.6, 0.6]
    assert report["diagnostics"]["certified_by"] == "rounding"


def test_solve_market_without_a_float_image(tmp_path):
    """An exact budget beyond the float range: the descent answers, and the
    proportional-response diagnostics are null."""
    market = {
        "kind": "market",
        "goods": [{"name": "A", "supply": 1}, {"name": "B", "supply": 1}],
        "buyers": [
            {"name": "b1", "values": [2, 2], "budget": "1e400"},
            {"name": "b2", "values": [2, 3], "budget": 1},
        ],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(market), encoding="utf-8")
    code, out, err = run_cli("solve", str(path), "--mode", "exact", "--no-timestamp")
    assert code == EXIT_OK and err == ""
    report = json.loads(out)
    assert report["p_star"] == [2, 2]
    diagnostics = report["diagnostics"]
    assert diagnostics["certified_by"] == "descent"
    assert diagnostics["descent_probes"] == 8
    assert diagnostics["method_agreement"] is None
    assert diagnostics["eg_duality_gap"] is None
    assert diagnostics["eg_iterations"] is None


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_solve_market_with_a_zero_supply_good(tmp_path, mode):
    """Good z has no supply, so proportional response does not run: the
    descent answers, and the proportional-response diagnostics are null."""
    market = {
        "kind": "market",
        "goods": [{"name": "g1", "supply": 1}, {"name": "z", "supply": 0}],
        "buyers": [{"name": "b1", "values": ["1/2", 2], "budget": "1/2"}],
    }
    path = tmp_path / "idle.json"
    path.write_text(json.dumps(market), encoding="utf-8")
    code, out, err = run_cli("solve", str(path), "--mode", mode, "--no-timestamp")
    assert code == EXIT_OK and err == ""
    report = json.loads(out)
    assert report["p_star"] == (["1/2", 2] if mode == "exact" else [0.5, 2.0])
    assert report["allocation"] == [[1, 0]]
    assert report["diagnostics"] == {
        "method_agreement": None, "eg_duality_gap": None, "eg_iterations": None,
        "descent_steps": 2, "descent_probes": 6,
        "certified_by": "descent",
    }


def test_solve_whose_descent_endpoint_does_not_clear_exits_2(fixture_dir, monkeypatch):
    def stuck(market, p0):
        return solver.DescentTrace(p0, (), p0, 0)  # feasible, but sells nothing

    monkeypatch.setattr(solver, "_snap", lambda market, sets: None)
    monkeypatch.setattr(solver, "lattice_descent", stuck)
    code, out, err = run_cli("solve", str(fixture_dir / "example2.json"), "--no-timestamp")
    assert code == EXIT_DISAGREE
    assert out == ""
    assert err == "error: descent endpoint failed its clearing check\n"


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_solve_without_a_minimal_price_exits_2(tmp_path, mode):
    """Good A is valued only by a buyer without money, so its price can fall
    without bound: solve fails with the solver-failure exit code and writes
    no report."""
    market = {
        "kind": "market",
        "goods": [{"name": "A", "supply": 1}, {"name": "B", "supply": 1}],
        "buyers": [
            {"name": "b1", "values": [0, 2], "budget": 1},
            {"name": "b2", "values": [1, 1], "budget": 0},
        ],
    }
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(market), encoding="utf-8")
    report = tmp_path / "report.json"
    code, out, err = run_cli("solve", str(path), "--mode", mode, "--out", str(report))
    assert code == EXIT_DISAGREE
    assert out == ""
    assert err == "error: goods [1] can fall without bound: no minimal price\n"
    assert not report.exists()


def test_solve_arctic_reports_owner_bundles(fixture_dir):
    code, out, _ = run_cli(
        "solve", str(fixture_dir / "example2_arctic_split.json"), "--no-timestamp"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    owners = {row["owner"]: row for row in report["owners"]}
    assert set(owners) == {"owner1", "owner2", "owner3"}
    assert all(row["spend"] == 1 for row in owners.values())


def test_a_dropped_zero_budget_bid_is_one_warning_line(tmp_path):
    """The funded bid is solved; the unfunded one is named on one stderr
    line, not as Python's raw warning with its source line."""
    path = tmp_path / "bids.json"
    path.write_text(json.dumps({
        "kind": "arctic",
        "goods": [{"name": "A", "supply": 1}],
        "bids": [{"owner": "o", "vector": [1], "budget": 0}, {"owner": "p", "vector": [2], "budget": 1}],
    }))
    code, out, err = run_cli("solve", str(path), "--no-timestamp")
    assert code == EXIT_OK
    assert err == "warning: dropping zero-budget bid by owner 'o'\n"
    assert json.loads(out)["buyers"] == ["p#1"]


def test_a_document_with_no_funded_bid_is_refused_at_bids(tmp_path):
    """Every bid is dropped, so the document is refused as input, after the
    warning that names the dropped bid."""
    path = tmp_path / "bids.json"
    path.write_text(json.dumps({
        "kind": "arctic",
        "goods": [{"name": "A", "supply": 1}],
        "bids": [{"owner": "o", "vector": [1], "budget": 0}],
    }))
    code, out, err = run_cli("solve", str(path), "--no-timestamp")
    assert (code, out) == (EXIT_INPUT, "")
    assert err == (
        "warning: dropping zero-budget bid by owner 'o'\n"
        "error: bids: no funded bid: every bid has a zero budget\n"
    )


def test_solve_out_file_writes_json_and_prints_summary(fixture_dir, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        "solve", str(fixture_dir / "example2.json"), "--no-timestamp", "--out", str(target)
    )
    assert code == EXIT_OK
    assert "p* = (3/5, 3/5)" in out
    assert json.loads(target.read_text())["revenue"] == 3


def test_check_price_clearing_verdict(fixture_dir):
    code, out, _ = run_cli(
        "check-price", str(fixture_dir / "example2.json"), "--price", "3/5,3/5", "--no-timestamp"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["feasible"] is True and report["clearing"] is True
    assert report["max_extension_revenue"] == 3


def test_check_price_witness(fixture_dir):
    code, out, _ = run_cli(
        "check-price", str(fixture_dir / "example2.json"), "--price", "1/2,1/2", "--no-timestamp"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["feasible"] is False and report["clearing"] is False
    assert report["witness"] == {
        "goods": ["A", "B"],
        "forced_budget": 3,
        "capacity": "5/2",
        "excess": "1/2",
    }


@pytest.mark.parametrize(
    "command, values, budget, message",
    [
        (["solve"], "[2.0, Infinity]", "1", "non-finite"),
        (["check-price", "--price", "1,1"], "[2.0, Infinity]", "1", "non-finite"),
        (
            ["region"],
            "[2, 1]",
            '"1e400"',
            "buyers[0].budget: number '1e400' is beyond the float range",
        ),
    ],
    ids=["solve", "check-price", "region"],
)
def test_non_finite_market_file_is_an_input_error(tmp_path, command, values, budget, message):
    """region reads its market in floats, so a budget beyond the float range
    is refused as it is by solve --mode float; it raised a bare
    OverflowError when region read the market exactly and then coerced it."""
    path = tmp_path / "inf.json"
    path.write_text(
        '{"kind": "market", "goods": [{"name": "A", "supply": 1}, {"name": "B", "supply": 1}],'
        f' "buyers": [{{"name": "b", "values": {values}, "budget": {budget}}}]}}'
    )
    grid = tmp_path / "grid.csv"
    out_flag = ["--out", str(grid)] if command[0] == "region" else []
    code, out, err = run_cli(command[0], str(path), *command[1:], *out_flag)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not grid.exists()


def test_check_price_arity_error(fixture_dir):
    code, _, err = run_cli(
        "check-price", str(fixture_dir / "example2.json"), "--price", "1"
    )
    assert code == EXIT_INPUT
    assert "expected 2 comma-separated prices" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-price", "--price", "1,abc"], "error: price: bad numeric literal 'abc'\n"),
        (["region", "--bounds", "0.4:abc"], "error: bounds: expected lo:hi, got '0.4:abc'\n"),
        (["region", "--bounds", "0.4"], "error: bounds: expected lo:hi, got '0.4'\n"),
    ],
    ids=["price-token", "bounds-number", "bounds-without-colon"],
)
def test_bad_numbers_in_options_are_input_errors(fixture_dir, tmp_path, argv, message):
    grid = tmp_path / "grid.csv"
    out_flag = ["--out", str(grid)] if argv[0] == "region" else []
    code, out, err = run_cli(
        argv[0], str(fixture_dir / "example2.json"), *argv[1:], *out_flag, "--no-timestamp"
    )
    assert (code, out, err) == (EXIT_INPUT, "", message)
    assert not grid.exists()


def test_region_writes_grid_and_boundary(fixture_dir, tmp_path):
    grid_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        "region",
        str(fixture_dir / "example2.json"),
        "--bounds",
        "0.35:3",
        "--resolution",
        "41",
        "--out",
        str(grid_path),
        "--no-timestamp",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mode"] == "float"  # exact inputs scan in float by default
    assert report["points"] == 41 * 41
    assert 0 < report["feasible_points"] < report["points"]
    assert max(abs(v - 0.6) for v in report["min_feasible_price"]) < 0.07
    assert abs(report["max_revenue"]["revenue"] - 3.0) < 1e-6
    assert grid_path.exists()
    boundary = tmp_path / "grid.boundary.csv"
    assert report["boundary_csv"] == str(boundary) and boundary.exists()
    header = grid_path.read_text().splitlines()[0]
    assert header == "price_1,price_2,feasible,max_revenue"


@pytest.mark.parametrize(
    "mode,resolution,feasible,low,digests",
    [
        (
            "float", 141, 11769, 0.6,
            (
                "a1ae5da95f079fad231067bc5f2f7a5d496b2d08c91f93e4ee6fb93d17e192b9",
                "26f247807096685c73d6e4c438fac9cdb66234a079a01d0ee78eedd74560f335",
            ),
        ),
        (
            "exact", 71, 2992, "3/5",
            (
                "d6b9bbb69e148b0f11e51287e3bb89285cb37961ed617f6e2fb97c4c21f191df",
                "5c930c68fa8d9eaa7c53e042d932d3992ce6a9c3b14a68246521297cec9d8a71",
            ),
        ),
    ],
    ids=["float", "exact"],
)
def test_region_outputs_are_pinned(fixture_dir, tmp_path, mode, resolution, feasible, low, digests):
    """The scan of example2 over 0.4:3.2 in each mode: both CSVs' bytes and
    the report's reductions, as the per-point flow scan wrote them."""
    grid_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        "region",
        str(fixture_dir / "example2.json"),
        "--bounds",
        "0.4:3.2",
        "--resolution",
        str(resolution),
        "--out",
        str(grid_path),
        "--no-timestamp",
        *(["--mode", "exact"] if mode == "exact" else []),  # float is the default
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mode"] == mode
    assert report["feasible_points"] == feasible
    assert report["min_feasible_price"] == [low, low]
    assert report["max_revenue"] == {"price": [low, low], "revenue": 3.0}

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert (digest(grid_path), digest(tmp_path / "grid.boundary.csv")) == digests


def test_region_lattice_cap(fixture_dir, tmp_path):
    code, _, err = run_cli(
        "region",
        str(fixture_dir / "example2.json"),
        "--resolution",
        "4000",
        "--out",
        str(tmp_path / "grid.csv"),
    )
    assert code == EXIT_INPUT
    assert "exceeds the 10^7 cap" in err


def test_region_boundary_needs_two_goods(fixture_dir, tmp_path):
    code, _, err = run_cli(
        "region",
        str(fixture_dir / "example1.json"),
        "--resolution",
        "10",
        "--boundary",
        str(tmp_path / "b.csv"),
        "--out",
        str(tmp_path / "grid.csv"),
    )
    assert code == EXIT_INPUT
    assert "exactly 2 goods" in err


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_region_with_an_unwritable_boundary_leaves_the_grid_csv_as_it_was(
    fixture_dir, tmp_path, existing
):
    """Every output is opened before any is written: a --boundary that cannot
    be opened neither creates the grid CSV nor truncates one already there."""
    grid_path = tmp_path / "g.csv"
    if existing:
        grid_path.write_text("kept\n")
    code, _, err = run_cli(
        "region", str(fixture_dir / "example2.json"), "--resolution", "9",
        "--out", str(grid_path), "--boundary", str(tmp_path / "nodir" / "b.csv"),
    )
    assert code == EXIT_INPUT and "nodir" in err
    assert grid_path.read_text() == "kept\n" if existing else not grid_path.exists()
    code, _, _ = run_cli(
        "region", str(fixture_dir / "example2.json"), "--resolution", "9", "--out", str(grid_path)
    )
    fresh = tmp_path / "fresh.csv"
    run_cli("region", str(fixture_dir / "example2.json"), "--resolution", "9", "--out", str(fresh))
    assert code == EXIT_OK and grid_path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_region_refuses_a_boundary_that_is_the_out_file(
    fixture_dir, tmp_path, monkeypatch, spelling, existing
):
    """A --boundary naming the --out file, however spelled, is an input error
    raised before the scan: no file is created, and one already there keeps
    its bytes."""
    from qfmarket import cli

    monkeypatch.setattr(cli, "grid_scan", lambda *a: pytest.fail("the scan ran"))
    grid_path = tmp_path / "g.csv"
    if existing:
        grid_path.write_bytes(b"kept\r\n")
    boundary = str(grid_path) if spelling == "same" else f"{tmp_path}/./g.csv"
    code, out, err = run_cli(
        "region", str(fixture_dir / "example2.json"), "--bounds", "0.4:3.2",
        "--resolution", "5", "--out", str(grid_path), "--boundary", boundary,
    )
    assert code == EXIT_INPUT and out == "" and "--out" in err
    assert grid_path.read_bytes() == b"kept\r\n" if existing else list(tmp_path.iterdir()) == []


def test_region_with_an_unwritable_out_writes_no_boundary_csv(fixture_dir, tmp_path):
    boundary = tmp_path / "b.csv"
    code, _, err = run_cli(
        "region", str(fixture_dir / "example2.json"), "--resolution", "9",
        "--out", str(tmp_path / "nodir" / "g.csv"), "--boundary", str(boundary),
    )
    assert code == EXIT_INPUT and "nodir" in err
    assert list(tmp_path.iterdir()) == []


def test_region_export_failing_midway_leaves_every_file_as_it_was(
    fixture_dir, tmp_path, monkeypatch
):
    """An export that fails after writing part of its file (a full disk)
    leaves both outputs' old bytes and no temporary file behind."""
    from qfmarket import cli

    def full_disk(polylines, fh):
        fh.write("x,y\n0.5,")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "export_boundary_csv", full_disk)
    grid_path, boundary = tmp_path / "g.csv", tmp_path / "b.csv"
    grid_path.write_bytes(b"kept\r\n")
    boundary.write_bytes(b"old\n")
    code, out, err = run_cli(
        "region", str(fixture_dir / "example2.json"), "--resolution", "9",
        "--out", str(grid_path), "--boundary", str(boundary),
    )
    assert code == EXIT_INPUT and out == "" and "No space left on device" in err
    assert grid_path.read_bytes() == b"kept\r\n" and boundary.read_bytes() == b"old\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["b.csv", "g.csv"]


def test_writes_go_through_symlinks_and_keep_permission_bits(fixture_dir, tmp_path):
    """A symlinked --out stays a link to its rewritten target, an existing
    file keeps its permission bits, and a new file gets those a plain open
    gives it."""
    argv = ["check-price", str(fixture_dir / "example2.json"), "--price", "3/5,3/5",
            "--no-timestamp"]
    _, report, _ = run_cli(*argv)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old\n")
    target.chmod(0o604)
    link.symlink_to(target)
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    kept.chmod(0o640)
    plain = tmp_path / "plain"
    plain.touch()
    for path in (link, kept, tmp_path / "new.json"):
        assert run_cli(*argv, "--out", str(path))[0] == EXIT_OK
        assert path.read_text() == report
    assert link.is_symlink() and link.resolve() == target
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {
        "target.json": 0o604, "link.json": 0o604, "kept.json": 0o640,
        "new.json": modes["plain"], "plain": modes["plain"],
    }


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_an_out_that_is_not_a_regular_file_is_refused(fixture_dir, tmp_path, kind):
    """An --out naming a FIFO or a directory is an input error, and it is
    left as it was, not replaced by a regular file. A reader is held open
    on the FIFO so that no writer's open of it can block."""
    target = tmp_path / "out"
    (os.mkfifo if kind == "fifo" else os.mkdir)(target)
    with contextlib.ExitStack() as stack:
        if kind == "fifo":
            reader = os.open(target, os.O_RDONLY | os.O_NONBLOCK)
            stack.callback(os.close, reader)
        code, out, err = run_cli(
            "check-price", str(fixture_dir / "example2.json"), "--price", "3/5,3/5",
            "--out", str(target),
        )
    assert code == EXIT_INPUT and out == "" and err.startswith("error:")
    assert stat.S_ISFIFO(target.stat().st_mode) if kind == "fifo" else target.is_dir()
    assert list(tmp_path.iterdir()) == [target]


def test_calls_in_one_process_share_no_parsed_state(fixture_dir, tmp_path):
    """main builds its parser once per process. A --boundary or --mode given
    to one call does not carry over to the next, which writes the default
    boundary path and scans in the default mode."""
    argv = ["region", str(fixture_dir / "example2.json"), "--resolution", "9", "--no-timestamp"]
    chosen = tmp_path / "b.csv"
    code, out, _ = run_cli(
        *argv, "--out", str(tmp_path / "one.csv"), "--boundary", str(chosen), "--mode", "exact"
    )
    report = json.loads(out)
    assert code == EXIT_OK and report["mode"] == "exact"
    assert report["boundary_csv"] == str(chosen) and chosen.exists()
    code, out, _ = run_cli(*argv, "--out", str(tmp_path / "two.csv"))
    report = json.loads(out)
    default = tmp_path / "two.boundary.csv"
    assert code == EXIT_OK and report["mode"] == "float"
    assert report["boundary_csv"] == str(default) and default.exists()


def test_region_refuses_a_window_beyond_the_float_range_in_one_short_line(
    fixture_dir, tmp_path
):
    """The error line printed both bounds in full: 862 characters."""
    grid = tmp_path / "grid.csv"
    code, out, err = run_cli(
        "region", str(fixture_dir / "example2.json"), "--mode", "exact",
        "--bounds", "1e400:2e400", "--out", str(grid),
    )
    assert code == EXIT_INPUT and out == ""
    assert err == "error: bad price window (1e+400, 2e+400): need 0 < lo < hi <= max float\n"
    assert not grid.exists()


def test_region_requires_out(fixture_dir):
    code, _, err = run_cli("region", str(fixture_dir / "example2.json"))
    assert code == EXIT_INPUT
    assert "--out" in err


def test_region_help_describes_out_as_the_grid_csv():
    code, out, _ = run_cli("region", "--help")
    assert code == EXIT_OK
    text = " ".join(out.split())
    assert "--out GRID_CSV write the grid CSV here; the JSON report goes to stdout" in text
    assert "write the JSON report here" not in text


def test_monopoly_curved_report():
    code, out, _ = run_cli(
        "monopoly", "--valuation", "example-a1", "--supply", "3", "--budget", "2", "--no-timestamp"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["clearing"] == {"price": 0.5, "revenue": 1.5}
    assert abs(report["optimal"]["price"] - 1.0) < 1e-6
    assert abs(report["optimal"]["revenue"] - 2.0) < 1e-9
    free = report["optimal_unconstrained"]
    assert abs(free["price"] - 1.4715177646857693) < 1e-4
    assert abs(free["quantity"] - 1.4426950408889634) < 1e-4
    assert abs(free["revenue"] - 2.122951381692172) < 1e-4
    assert report["divergence_witness"]["prop1"] is True
    assert abs(report["divergence_witness"]["x_tilde"] - 2.0) < 1e-6


def test_monopoly_linear_report():
    # inf, like the default, is no budget; linear:v=5 reads as linear:5
    for valuation, budget in (("linear:5", []), ("linear:5", ["--budget", "inf"]),
                              ("linear:v=5", [])):
        code, out, _ = run_cli(
            "monopoly", "--valuation", valuation, "--supply", "3", *budget, "--no-timestamp"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["input"]["budget"] == "inf"
        assert report["clearing"]["price"] == 5.0
        assert report["optimal"] == {"price": 5.0, "quantity": 3.0, "revenue": 15.0}
        assert "optimal_unconstrained" not in report
        assert report["divergence_witness"] is None


def test_monopoly_rejects_unknown_valuations():
    code, _, err = run_cli("monopoly", "--valuation", "cubic:2", "--supply", "3")
    assert code == EXIT_INPUT
    assert "unknown valuation" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--budget", "abc", "bad number 'abc'"),
        ("--budget", "nan", "budget must be nonnegative"),
        ("--supply", "nan", "supply must be finite"),
        ("--supply", "inf", "supply must be finite"),
        ("--valuation", "linear:nan", "per-unit value must be positive and finite"),
        ("--valuation", "linear:abc", "bad linear value 'abc'"),
        ("--valuation", "linear:v=abc", "bad linear value 'abc'"),
    ],
    ids=["budget-abc", "budget-nan", "supply-nan", "supply-inf", "linear-nan", "linear-abc",
         "linear-v-abc"],
)
def test_monopoly_rejects_bad_numbers(flag, value, message):
    argv = {"--valuation": "linear:5", "--supply": "3", flag: value}
    code, out, err = run_cli("monopoly", *(t for pair in argv.items() for t in pair))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_proptest_small_run():
    code, out, _ = run_cli(
        "proptest", "--seed", "0", "--markets", "2", "--pairs", "10", "--no-timestamp"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["ok"] is True
    assert [s["name"] for s in report["suites"]] == [
        "meet-closure",
        "revenue-dominance",
        "efficiency",
        "minimality",
        "upward-closure",
    ]
    assert all(s["failures"] == [] for s in report["suites"])


@pytest.mark.parametrize(
    "flag,value", [("--markets", "0"), ("--markets", "-1"), ("--pairs", "0")]
)
def test_proptest_refuses_counts_that_test_nothing(flag, value):
    code, out, err = run_cli("proptest", flag, value, "--no-timestamp")
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error:") and "markets >= 1 and pairs >= 1" in err


def test_csv_input_needs_supplies(tmp_path):
    table = tmp_path / "m.csv"
    table.write_text("name,budget,v_1,v_2\nb1,1,2,3\nb2,1,2,2\nb3,1,4,2\n")
    code, out, _ = run_cli("solve", str(table), "--supply", "3,2", "--no-timestamp")
    assert code == EXIT_OK
    assert json.loads(out)["p_star"] == ["3/5", "3/5"]
    code, _, err = run_cli("solve", str(table))
    assert code == EXIT_INPUT
    assert "--supply" in err


@pytest.mark.parametrize(
    "flags", [["--supply", "9,9"], ["--kind", "arctic"], ["--kind", "market"]],
    ids=["supply", "kind-arctic", "kind-market"],
)
def test_json_input_refuses_csv_flags(fixture_dir, flags):
    """--supply and --kind describe CSV rows; a JSON market names its own
    supplies and kind, so the flags are refused rather than ignored."""
    code, out, err = run_cli("solve", str(fixture_dir / "example2.json"), *flags)
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: json: {flags[0]} applies to CSV input only; a JSON market sets its own\n"


def test_csv_input_takes_its_kind(tmp_path):
    table = tmp_path / "bids.csv"
    table.write_text("name,budget,v_1,v_2\nb1,1,2,3\nb2,1,2,2\nb3,1,4,2\n")
    for kind in ([], ["--kind", "market"], ["--kind", "arctic"]):
        code, out, _ = run_cli("solve", str(table), "--supply", "3,2", *kind, "--no-timestamp")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["input"]["kind"] == (kind[1] if kind else "market")
        assert report["p_star"] == ["3/5", "3/5"]


def test_subcommands_return_reports_and_main_writes_them(fixture_dir, tmp_path, capsys):
    """A cmd_* builds its report and summary and writes neither; main stamps
    the report, writes it to --out and prints the summary."""
    path = str(fixture_dir / "example2.json")
    args = build_parser().parse_args(["check-price", path, "--price", "3/5,3/5"])
    report, summary = args.fn(args)
    assert capsys.readouterr() == ("", "")
    assert "generated_at" not in report and "elapsed_seconds" not in report
    assert summary == ["feasible, clearing", "max-extension revenue = 3"]
    target = tmp_path / "report.json"
    assert main(["check-price", path, "--price", "3/5,3/5", "--out", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == "feasible, clearing\nmax-extension revenue = 3\n"
    written = json.loads(target.read_text())
    assert list(written) == [*report, "generated_at", "elapsed_seconds"]
    assert written["elapsed_seconds"] >= 0


@pytest.mark.parametrize(
    "argv",
    [["solve", "example2.json"], ["monopoly", "--valuation", "linear:5", "--supply", "3"]],
    ids=["solve", "monopoly"],
)
def test_unwritable_out_is_an_input_error(fixture_dir, tmp_path, argv):
    argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(*argv, "--out", str(tmp_path / "missing" / "report.json"))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error:") and "No such file or directory" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "example2.json", "--tol", "1e-8"], "unrecognized arguments: --tol 1e-8"),
        (["solve"], "the following arguments are required: path"),
        (["region", "example2.json", "--resolution", "abc", "--out", "grid.csv"],
         "invalid int value: 'abc'"),
    ],
    ids=["removed-tol-flag", "no-path", "non-integer-resolution"],
)
def test_usage_errors_are_input_errors(fixture_dir, argv, message):
    """argparse's own exit code 2 would read as a solver failure."""
    if len(argv) > 1:
        argv = [argv[0], str(fixture_dir / argv[1]), *argv[2:]]
    code, out, err = run_cli(*argv)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("usage:") and message in err


def test_help_exits_zero():
    code, out, _ = run_cli("solve", "--help")
    assert code == EXIT_OK
    assert "--no-timestamp" in out and "--tol" not in out


def test_missing_input_file_is_an_input_error():
    code, _, err = run_cli("solve", "definitely_missing.json")
    assert code == EXIT_INPUT
    assert "error:" in err


def test_module_entry_point_matches_console_script(fixture_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "qfmarket", "check-price",
         str(fixture_dir / "example2.json"), "--price", "3/5,3/5", "--no-timestamp"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["clearing"] is True


def test_exit_codes_are_distinct():
    assert (EXIT_OK, EXIT_INPUT, EXIT_DISAGREE) == (0, 1, 2)
