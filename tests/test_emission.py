"""The data-file writer: pinned bytes of every bundled experiment, JSON
layout against the json module, CSV float cells against Python's "%.12g",
and the schema check on the columns.

The sha256 goldens pin each bundled spec's data and summary file in the
spec's own format (Workspace at its spec seed 42), so any change in how a
number is formatted or a row is laid out shows as a mismatch.
"""

import csv
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tendonsim.cli as cli
from tendonsim.cli import (DATA_DIR, SchemaError, _check_columns, _write_rows,
                           main, parse_experiment, run_experiment,
                           validate_csv_schema)

GOLDEN_SHA256 = {
    "eca_stiffness_range.json":
        "76260eb3869090579058b65be59975edbce296edfc7998112f1f80e989af0749",
    "eca_stiffness_range_summary.json":
        "8f7d0867b52862aa91e4bca1a4c3b0776ec62c1d8cffeb564c9254c08a81938a",
    "ica_force_displacement.csv":
        "b4baea7ad23859f45875ccabbc07652b4587d89d0e42def07652ddee62dff0c6",
    "ica_force_displacement_summary.json":
        "e7918b96a234d13865b3ae97f94f24e67606d19bb875e610f24ed6f718488eeb",
    "ica_max_acceleration.csv":
        "29d1575a8080f7802b5c8b17bfb351032f45bfe71527ab588c1f1eb582598075",
    "ica_max_acceleration_summary.json":
        "4e240aadbbf709fa37667cfebe61bff2721d475e5a63c207d54326498bb55b04",
    "ica_max_torque.csv":
        "2f1cddecaba3dca9204869a62193d32ea761678539195dd409e42d3f72fe5431",
    "ica_max_torque_summary.json":
        "5de9cc2fdeffbc9896424a5136f81919efa7115e539e1e72619ff4a92ca6d4ce",
    "ica_stiffness_vs_pretension.csv":
        "9976d9da55950666dc40efb23604e95c304ccc2b785932fd3f00852d7115b130",
    "ica_stiffness_vs_pretension_summary.json":
        "fa1b346649e36788209857afed8315213df94868f7be5ab3462a2b46fe629117",
    "ica_torque_surface.csv":
        "caab8055e80645d299cf0e5f5c37c114a2bdd4095c8515d2a1d5cbe181504c4a",
    "ica_torque_surface_summary.json":
        "30401cca8071c05ddfcd27948d1abfddfba81b51ed2cd09ad3312fb7dee7f413",
    "lift_trace.csv":
        "3523ebbc92069aee3592f3f6f02d18061dd7997642d9db9f6f73ba1a218fe8c1",
    "lift_trace_summary.json":
        "0f961797861f54ec320d24adf7035454afbb24c6ad4730b5581e42e232e69d5f",
    "workspace_points.csv":
        "931c1f740fca252ad3eb4b9561c620c17eb955545a98617e84c2856e0a73e921",
    "workspace_points_summary.json":
        "9b512746a4b1f4ec6dacdee1ec7cdfb339af35af67a8728e80af5d340f260465",
}


def test_bundled_outputs_match_pinned_sha256(tmp_path):
    specs = sorted(DATA_DIR.glob("exp_*.yaml"))
    assert len(specs) == 8
    for path in specs:
        run_experiment(parse_experiment(path), out_dir=tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir()}
    assert got == GOLDEN_SHA256


# the formats and seed of the benchmark's pass: the Lift as JSON, the
# Workspace at seed 7
BENCH_GOLDEN_SHA256 = {
    "lift_trace.json":
        "031a16b29d0ed98a925421d0af3576867d0ed3a0aa5109767de513e06d31dc9d",
    "lift_trace_summary.json":
        "0f961797861f54ec320d24adf7035454afbb24c6ad4730b5581e42e232e69d5f",
    "workspace_points.csv":
        "38a22600f7d503bdc6c1912107e16e6b8889c2e454229e59962c5b802b0a7557",
    "workspace_points_summary.json":
        "0d18542c235f13c59299d70d7a5c643929a61f6ef7945f6c327fc52cce5bbc14",
}


def test_benchmark_outputs_match_pinned_sha256(tmp_path):
    run_experiment(parse_experiment(DATA_DIR / "exp_lift.yaml"),
                   out_dir=tmp_path, fmt="json")
    run_experiment(parse_experiment(DATA_DIR / "exp_workspace.yaml"),
                   out_dir=tmp_path, seed=7)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir()}
    assert got == BENCH_GOLDEN_SHA256


# the data files the goldens above skip: five CSV specs as JSON, where no
# %.12g rounding hides their last digits, and the benchmark's tabulated
# TorqueSurface in both formats with its summary
MORE_GOLDEN_SHA256 = {
    "ica_force_displacement.json":
        "287f78f0e9a4cbac78024afe939228218fc3a990a1b3fa7d34f96247eeaec26f",
    "ica_max_acceleration.json":
        "5a94b89ff70481f4b6c11583d55335d56f9e66137f42221e4325a72988604ad7",
    "ica_max_torque.json":
        "0e958c379bd1c3e9e542e81e452b8a3ba89c33564c0d5f9336fe06b95d46de2f",
    "ica_stiffness_vs_pretension.json":
        "4f28732e7ce9aebd321be9e9129235a2345d6f44c1418326f86c3ab70b6f74b1",
    "ica_torque_surface.json":
        "32f23efaa416b0210d269cb51f3dcacc9c3ca9c6617e1b18559dff4a19f0e9c2",
    "misa_torque_surface.csv":
        "ba8eb44b75e2224c1fb813e6650ac2f662d0160c15df654be026563aed8db33b",
    "misa_torque_surface.json":
        "efefdd4a2a57932e15df61455f4e69edb1a26dfaaa495d8ec225bf948d9d438e",
    "misa_torque_surface_summary.json":
        "58aed2bcd614d8d01471ecbf7f9a4b882401ef6a8c6b3392f83b8e36d473da0b",
}
BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def test_json_and_tabulated_outputs_match_pinned_sha256(tmp_path):
    for name in ("exp_force_displacement.yaml", "exp_max_acceleration.yaml",
                 "exp_max_torque.yaml", "exp_stiffness_vs_pretension.yaml",
                 "exp_torque_surface.yaml"):
        run_experiment(parse_experiment(DATA_DIR / name), out_dir=tmp_path,
                       fmt="json")
    tabulated = parse_experiment(BENCH_DATA / "exp_tabulated_surface.yaml")
    for fmt in ("csv", "json"):
        run_experiment(tabulated, out_dir=tmp_path, fmt=fmt)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir()}
    # the five summaries do not depend on the format; GOLDEN_SHA256 has them
    assert {k: v for k, v in got.items()
            if k not in GOLDEN_SHA256} == MORE_GOLDEN_SHA256


# --------------------------------------------------------------------------
# _write_rows against the csv and json modules

TABLES = [
    (["d_mm"], [np.array([0.0, -0.0, 1e-300, 2.5e17])]),
    (["d_s_mm", "stage_label", "F_e_N", "K_s_Nmm_per_rad"],
     [np.array([0.0, 0.1, 1.0 / 3.0]), ["S1", "S2", "S3"],
      np.array([5.0, math.pi, -1e-7]), np.array([320.5, 7.0, 1e20])]),
    (["x_m", "y_m"], np.array([[0.1, 0.2], [-0.3, 123456789.123456789]]).T),
    (["t_s", "note_label"], [np.array([1.0, 2.0]),
                             ['a,b', 'say "hi"']]),
]


def _block_table(n_rows, label):
    """n_rows of two float columns over many decades, and with label a
    *_label column between them whose cells need quoting now and then."""
    rng = np.random.default_rng(n_rows)
    x = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
    y = np.arange(n_rows) / 7.0
    y[::5] = -0.0
    if not label:
        return ["x_m", "y_s"], [x, y]
    notes = ["S1", "a,b", 'say "hi"', "S2"]
    return (["x_m", "note_label", "y_s"],
            [x, [notes[i % 4] for i in range(n_rows)], y])


def _ulps_around(v, n):
    """v and the n floats on either side of it."""
    return (np.array([v]).view(np.int64)
            + np.arange(-n, n + 1)).view(np.float64).tolist()


# CSV cells where a renderer of "%.12g" from scaled integers could slip
EDGE_VALUES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.2250738585072014e-308 / 3,
    1e308, 1.7976931348623157e308,
    # powers of ten and their neighbours
    *(w for e in range(-6, 14) for w in _ulps_around(10.0 ** e, 3)),
    # ties and near ties at the 12th digit
    *((k + 0.5) * 10.0 ** -j for j in range(0, 17)
      for k in (0, 1, 7, 12345, 99999999999, 123456789012, 999999999999)),
    # either side of the fixed-notation range the numpy path covers
    *_ulps_around(1e-4, 3), *_ulps_around(1e11, 3),
    # 12 digits that round up to the next power of ten
    *(9.9999999999996 * 10.0 ** e for e in range(-6, 12)),
    9.99999999999949, 99999999999.9996, 0.000999999999999951,
]
EDGE_VALUES += [-v for v in EDGE_VALUES]


def _csv_block_table(n_rows):
    """n_rows of *_label columns first and last around two float columns,
    mostly in the range the numpy renderer covers, with EDGE_VALUES spread
    over the rows; some labels need quoting, one is not ASCII and one holds
    a NUL."""
    rng = np.random.default_rng(n_rows + 1)
    x = rng.uniform(-1.0, 1.0, n_rows) * 10.0 ** rng.integers(-4, 11, n_rows)
    x[::11] = np.resize(EDGE_VALUES, len(x[::11]))
    y = np.round(rng.uniform(0.0, 50.0, n_rows), rng.integers(0, 13))
    stages = ["S1", "S2", "a,b", "S3"]
    notes = ['say "hi"', "\u00e9t\u00e9", "nul\0byte", "two\nlines"]
    return (["stage_label", "x_m", "y_s", "note_label"],
            [[stages[i % 4] for i in range(n_rows)], x, y,
             [notes[i % 4] for i in range(n_rows)]])


# tables around the block size B: 0, 1, B-1, B, B+1 and 2B+1 rows
B = cli._BLOCK_ROWS
TABLES += [_block_table(n, label) for label in (False, True)
           for n in (0, 1, B - 1, B, B + 1, 2 * B + 1)]
TABLES += [_csv_block_table(n) for n in (0, 1, B - 1, B, B + 1, 2 * B + 1)]


# a table without number columns, which the contract test below cannot
# spoil
LABELS_ONLY = [(["stage_label"], [["S1", "a,b", "S1"]])]


@pytest.mark.parametrize("header,columns", TABLES + LABELS_ONLY)
def test_json_rows_equal_json_dump(tmp_path, header, columns):
    path = tmp_path / "t.json"
    _write_rows(path, header, columns, "json")
    rows = [[c if isinstance(c, str) else float(c) for c in r]
            for r in zip(*columns)]
    expected = json.dumps({"columns": header, "rows": rows}, indent=2,
                          sort_keys=True) + "\n"
    assert path.read_text() == expected


@pytest.mark.parametrize("header,columns", TABLES + LABELS_ONLY)
def test_csv_rows_equal_csv_writer_with_12g_cells(tmp_path, header, columns):
    path = tmp_path / "t.csv"
    _write_rows(path, header, columns, "csv")
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in zip(*columns):
            writer.writerow([c if isinstance(c, str) else format(c, ".12g")
                             for c in r])
    assert path.read_bytes() == expected.read_bytes()


# --------------------------------------------------------------------------
# CSV float cells, rendered by numpy, against Python's "%.12g"

def _csv_lines(values):
    """The CSV rows of one float column holding values."""
    return cli._slot_rows(cli._CSV, [None],
                          [np.array(values, dtype=float)]).split("\n")


def test_edge_cells_equal_12g():
    expected = ["%.12g" % v for v in EDGE_VALUES]
    assert _csv_lines(EDGE_VALUES)[:-1] == expected
    assert [_csv_lines([v])[0] for v in EDGE_VALUES] == expected


def test_ties_are_rendered_by_numpy():
    # test_edge_cells_equal_repr checks their text
    x = np.array(REPR_TIES)
    assert cli._significand_repr(np.abs(x))[0].all()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e11, max_value=1e11),
    st.builds(lambda k, j: k * 10.0 ** -j,
              st.integers(-10 ** 12, 10 ** 12), st.integers(0, 16))),
    min_size=1, max_size=64))
def test_float_cells_equal_12g(values):
    assert _csv_lines(values) == ["%.12g" % v for v in values] + [""]


def test_csv_writer_holds_one_block_of_text(tmp_path):
    # the whole text of this table is 4.6 MB; rendering it at once would
    # hold all of it, and several times as much in the cells' slots
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (100_000, 3))
    path = tmp_path / "w.csv"
    tracemalloc.start()
    try:
        _write_rows(path, ["x_m", "y_m", "z_m"], x.T, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 4.5e6
    assert peak < 4e6


# --------------------------------------------------------------------------
# JSON float cells, rendered by numpy, against Python's repr

def _json_cells(values):
    """The cell lines of the JSON rows of one float column holding
    values."""
    text = cli._slot_rows(cli._JSON, [None], [np.array(values, dtype=float)])
    return text.split("\n")[2::3]


def _decimal_halfways(n_digits):
    """Floats nearest to decimals halfway between two n_digits-digit
    decimals (an (n_digits + 1)-digit decimal ending in 5), over the fixed
    notation's exponents and either side of it, with their neighbours."""
    rng = np.random.default_rng(n_digits)
    ks = [10 ** (n_digits - 1), 10 ** n_digits - 1,
          *rng.integers(10 ** (n_digits - 1), 10 ** n_digits, 4).tolist()]
    return [w for k in ks for e in range(-6, 18)
            for w in _ulps_around(float(f"{k}5e{e - n_digits}"), 1)]


# floats exactly halfway between two 16-digit decimals (the first three)
# or two 17-digit ones, which repr rounds to the even one
REPR_TIES = [991191879064266.75, 89492432915286.125, 733831268782893.75,
             1370193520756063.75]

# JSON cells where a renderer of repr from scaled integers could slip
REPR_EDGE_VALUES = [
    0.0, -0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 1e-310,
    2.2250738585072014e-308, 2.2250738585072014e-308 / 3,
    1.7976931348623157e308,
    # powers of two and ten and their neighbours, in and out of the fixed
    # notation's range
    *(w for k in range(-20, 60) for w in _ulps_around(2.0 ** k, 3)),
    *(w for e in range(-6, 18) for w in _ulps_around(10.0 ** e, 3)),
    # either side of the fixed-notation range
    *_ulps_around(1e-4, 3), *_ulps_around(1e16, 3),
    # integral floats near 2**53, and halves and quarters below it, where
    # the 17th digit is a tie
    *(2.0 ** 53 + k for k in range(-9, 10)),
    *(2.0 ** 52 + k / 2 for k in range(-5, 6)),
    *(2.0 ** 51 + k / 4 for k in range(-5, 6)),
    1370193520756063.8, 2126320647159473.2, 9999999999999998.0,
    *_decimal_halfways(15), *_decimal_halfways(16), *_decimal_halfways(17),
    *REPR_TIES,
]
REPR_EDGE_VALUES += [-v for v in REPR_EDGE_VALUES]


def test_edge_cells_equal_repr():
    expected = ["      " + repr(v) for v in REPR_EDGE_VALUES]
    assert _json_cells(REPR_EDGE_VALUES) == expected
    assert [_json_cells([v])[0] for v in REPR_EDGE_VALUES] == expected


def test_ties_are_rendered_by_numpy():
    # test_edge_cells_equal_repr checks their text
    x = np.array(REPR_TIES)
    assert cli._significand_repr(np.abs(x))[0].all()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e16, max_value=1e16),
    st.builds(lambda k, j: k * 10.0 ** -j,
              st.integers(-10 ** 17, 10 ** 17), st.integers(0, 20))),
    min_size=1, max_size=64))
def test_float_cells_equal_repr(values):
    assert _json_cells(values) == ["      " + repr(v) for v in values]


def test_json_writer_holds_one_block_of_text(tmp_path):
    # the whole text of this table is 9.2 MB; rendering it at once would
    # hold all of it, and several times as much in the cells' slots
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (100_000, 3))
    path = tmp_path / "w.json"
    tracemalloc.start()
    try:
        _write_rows(path, ["x_m", "y_m", "z_m"], x.T, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 9e6
    assert peak < 5e6


# --------------------------------------------------------------------------
# the schema check on the columns

@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("header,columns,fragment", [
    (["d_mm", "F_N"], [np.array([1.0, 2.0]), np.array([3.0, math.nan])],
     "row 2: non-finite cell in 'F_N'"),
    (["d_mm"], [np.array([-math.inf])], "row 1: non-finite cell in 'd_mm'"),
    (["d_mm", "stage_label"], [np.array([1.0, 2.0]), ["S1", ""]],
     "row 2: empty label in 'stage_label'"),
    (["displacement", "F_N"], [np.array([1.0]), np.array([2.0])],
     "lacks a known unit suffix"),
    (["d_mm", "F_N"], [np.array([1.0]), np.array([2.0, 3.0])],
     "column 'F_N' has 2 cells, expected 1"),
    (["d_mm", "F_N"], [np.array([1.0])], "2 column names for 1 columns"),
])
def test_schema_violation_writes_no_file(tmp_path, fmt, header, columns,
                                         fragment):
    path = tmp_path / f"bad.{fmt}"
    with pytest.raises(SchemaError, match=fragment):
        _write_rows(path, header, columns, fmt)
    assert not path.exists()


@pytest.mark.parametrize("header,columns", TABLES)
def test_written_and_on_disk_tables_share_one_contract(tmp_path, header,
                                                       columns):
    path = tmp_path / "t.csv"
    _write_rows(path, header, columns, "csv")
    validate_csv_schema(path)
    if not len(columns[0]):
        return
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    # the middle cell of the first number column, then of the first label
    # column, spoiled in the columns and in the file alike
    mid = len(columns[0]) // 2
    number = next(j for j, n in enumerate(header) if not n.endswith("_label"))
    label = next((j for j, n in enumerate(header) if n.endswith("_label")),
                 None)
    for j, value, cell in ((number, math.nan, "nan"), (label, "", "")):
        if j is None:
            continue
        bad_columns = [list(col) for col in columns]
        bad_columns[j][mid] = value
        rows_copy = [list(row) for row in rows]
        rows_copy[1 + mid][j] = cell
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows_copy)
        with pytest.raises(SchemaError) as emitted:
            _check_columns(bad, header, bad_columns)
        with pytest.raises(SchemaError) as on_disk:
            validate_csv_schema(bad)
        assert str(on_disk.value) == str(emitted.value)
        assert str(emitted.value).startswith(f"{bad}: row {mid + 1}: ")
        assert str(emitted.value).endswith(f" in '{header[j]}'")


@pytest.mark.parametrize("content,fragment", [
    (b"x_m\n1.0\n\xff\n", "not UTF-8 text"),
    (b"x_m\n" + b"1" * 200_000 + b"\n", "field larger than field limit"),
], ids=["not_utf8", "huge_field"])
def test_unreadable_csv_is_a_schema_error(tmp_path, content, fragment):
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    with pytest.raises(SchemaError, match=fragment) as err:
        validate_csv_schema(path)
    assert str(err.value).startswith(f"{path}: ")


def _time_csv(path, n, *columns):
    t = np.arange(n) * 1e-4
    _write_rows(path, ["t_s", *columns], [t] + [np.sin(t)] * len(columns),
                "csv")


def test_schema_check_memory_is_one_block_for_any_length(tmp_path):
    # the rows are read and checked one block at a time: a table ten times
    # longer peaks within one block's worth of memory of the shorter one
    peaks = {}
    for n in (cli._BLOCK_ROWS, 20_000, 200_000):
        _time_csv(tmp_path / f"{n}.csv", n)
        tracemalloc.start()
        try:
            validate_csv_schema(tmp_path / f"{n}.csv")
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[200_000] - peaks[20_000]) < peaks[cli._BLOCK_ROWS]


@pytest.mark.parametrize("row,cell,fragment", [
    (5000, "1.0", "expected 2 cells, got 3"),
    (9000, "x", "non-numeric cell 'x' in 'theta_rad'"),
    (2 * 4096, "inf", "non-finite cell in 'theta_rad'"),
    (2 * 4096 + 1, "inf", "non-finite cell in 'theta_rad'"),
], ids=["ragged", "non_numeric", "non_finite_last_of_block",
        "non_finite_first_of_block"])
def test_schema_rows_count_across_blocks(tmp_path, row, cell, fragment):
    path = tmp_path / "t.csv"
    _time_csv(path, 10_000, "theta_rad")
    lines = path.read_text().split("\n")
    if fragment.startswith("expected"):
        lines[row] += "," + cell
    else:
        lines[row] = lines[row].split(",")[0] + "," + cell
    path.write_text("\n".join(lines))
    with pytest.raises(SchemaError) as err:
        validate_csv_schema(path)
    assert str(err.value) == f"{path}: row {row}: {fragment}"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_run_with_a_nan_cell_fails_before_any_file(tmp_path, monkeypatch,
                                                   capsys, fmt):
    real = cli.simulate_lift

    def nan_lift(scenario):
        trace = real(scenario)
        trace.power[3] = math.nan
        return trace

    monkeypatch.setattr(cli, "simulate_lift", nan_lift)
    out = tmp_path / "o"
    assert main(["run", str(DATA_DIR / "exp_lift.yaml"), "--out", str(out),
                 "--format", fmt]) == 1
    assert capsys.readouterr().err == (
        f"error: {out / ('lift_trace.' + fmt)}: row 4: non-finite cell in "
        f"'power_W'\n")
    assert list(out.iterdir()) == []
