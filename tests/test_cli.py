"""Config parsing, file resolution, the CSV schema gate and the CLI itself.

Most tests drive main() in-process; file fixtures are written to tmp_path.
Bare config names must fall back to the bundled data directory so every
shipped file doubles as a test vector.
"""

import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tendonsim import cli, config, default_arm, elastic, emit, joint, yaml12
from tendonsim.cli import (DATA_DIR, ENV_CONFIG_DIR, EXPERIMENTS,
                           ConfigError, ExperimentError, ExperimentSpec,
                           GridSpec, LoadedJoint, _merge_exact, _sweep_eval,
                           main, parse_config,
                           parse_experiment, run_experiment,
                           validate_csv_schema)
from tendonsim.config import MAX_RUN_POINTS, _read_yaml

ROOT = Path(__file__).resolve().parents[1]
BENCH_DATA = ROOT / "bench" / "data"
README = ROOT / "README.md"

ACT_TPL = """\
actuator:
  kind: compression_external
  k_cs: 10.0
  k_t: 40.0
  F_tm: 100.0
  rated_force: 120.0
  rated_speed: 100.0
  label: {label}
"""


def _write(path, text):
    path.write_text(text)
    return path


@pytest.fixture(autouse=True)
def _isolated_resolution(tmp_path, monkeypatch):
    # keep the cwd and env candidates of the search path predictable
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_CONFIG_DIR, raising=False)


# --------------------------------------------------------------------------
# bundled configs and the validate command


def test_every_bundled_config_validates(capsys):
    names = sorted(p.name for p in DATA_DIR.glob("*.yaml"))
    assert len(names) == 15
    for name in names:
        assert main(["validate", name]) == 0, name
        assert capsys.readouterr().out.startswith("OK: ")


def test_validate_strict_accepts_bundled_configs(capsys):
    paths = sorted(DATA_DIR.glob("*.yaml")) + sorted(BENCH_DATA.glob("*.yaml"))
    assert len(paths) == 17
    for path in paths:
        assert main(["validate", str(path)]) == 0, path
        capsys.readouterr()


def test_validate_reports_parse_errors(tmp_path, capsys):
    bad = _write(tmp_path / "bad.yaml", "actuator:\n  kind: torsion_internal\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: ")
    assert "missing field 'k_t'" in err
    assert "bad.yaml" in err


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    assert any(line.startswith("ForceDisplacement:") for line in lines)
    # README's kinds table says the same, row for row
    table = README.read_text().split("| kind | data |\n| --- | --- |\n",
                                      1)[1].split("\n\n", 1)[0]
    assert lines == [": ".join(row.strip("| ").split(" | "))
                     for row in table.splitlines()]
    # and each kind has a bundled spec
    bundled = {yaml.safe_load(p.read_text())["experiment"]["kind"]
               for p in DATA_DIR.glob("exp_*.yaml")}
    assert {line.split(":")[0] for line in lines} == bundled


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2


# --------------------------------------------------------------------------
# parse errors


def test_missing_field_names_field_and_file(tmp_path):
    p = _write(tmp_path / "a.yaml",
               "actuator:\n  kind: compression_external\n  k_cs: 10.0\n")
    with pytest.raises(ConfigError, match="missing field 'k_t'"):
        parse_config(p)


def test_unknown_kind(tmp_path):
    p = _write(tmp_path / "a.yaml", ACT_TPL.format(label="x").replace(
        "compression_external", "hydraulic"))
    with pytest.raises(ConfigError, match="'kind' must be one of"):
        parse_config(p)


def test_yaml_syntax_error(tmp_path):
    p = _write(tmp_path / "a.yaml", "actuator: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML parse error"):
        parse_config(p)


def test_top_level_must_be_mapping(tmp_path):
    p = _write(tmp_path / "a.yaml", "- 1\n- 2\n")
    with pytest.raises(ConfigError, match="top level must be a mapping"):
        parse_config(p)


def test_exactly_one_section(tmp_path):
    p = _write(tmp_path / "a.yaml",
               ACT_TPL.format(label="x") + "joint:\n  R: 10.0\n")
    with pytest.raises(ConfigError, match="exactly one of the sections"):
        parse_config(p)


def test_non_numeric_field(tmp_path):
    p = _write(tmp_path / "a.yaml",
               ACT_TPL.format(label="x").replace("k_t: 40.0", "k_t: forty"))
    with pytest.raises(ConfigError, match="'k_t' must be a number"):
        parse_config(p)


def test_exponent_floats_without_a_dot(tmp_path):
    p = _write(tmp_path / "x.yaml", "a: 1e-4\nb: -2E+3\nc: '1e-4'\nd: 7\n")
    assert _read_yaml(p) == {"a": 1e-4, "b": -2000.0, "c": "1e-4", "d": 7}
    lift = (DATA_DIR / "lift_dumbbell.yaml").read_text()
    assert "dt: 0.0001 " in lift
    p = _write(tmp_path / "lift.yaml",
               lift.replace("dt: 0.0001 ", "dt: 1e-4 "))
    assert parse_config(p).dt == 1e-4


def test_strict_rejects_unknown_keys(tmp_path):
    p = _write(tmp_path / "a.yaml",
               ACT_TPL.format(label="x") + "  typo_key: 3\n")
    with pytest.raises(ConfigError, match=r"unknown keys \['typo_key'\]"):
        parse_config(p)


def test_strict_rejects_unknown_top_level_keys(tmp_path, capsys):
    p = _write(tmp_path / "arm.yaml",
               (DATA_DIR / "arm.yaml").read_text() + "notes: right arm\n")
    assert main(["validate", str(p)]) == 1
    assert _one_line_error(capsys) == (
        f"invalid: {p}: unknown top-level keys ['notes']\n")


def test_table_header_is_mandatory(tmp_path):
    _write(tmp_path / "curve.csv", "d_mm,F_N\n0,0\n1,2\n")
    p = _write(tmp_path / "a.yaml", (
        "actuator:\n  kind: tabulated\n  table: curve.csv\n"
        "  k_t: 40.0\n  rated_force: 120.0\n  rated_speed: 100.0\n"))
    with pytest.raises(ConfigError, match="table header must be exactly"):
        parse_config(p)


def _misa_with_curve(tmp_path, curve):
    """A copy of the bundled tabulated actuator whose curve file reads
    curve; the actuator names its curve bare, so the copy here wins."""
    (tmp_path / "misa_like_curve.csv").write_text(curve)
    return _write(tmp_path / "misa.yaml",
                  (DATA_DIR / "misa_like.yaml").read_text())


@pytest.mark.parametrize("row, fragment", [
    (None, "misa_like_curve.csv: empty table file"),
    ("1,2.01461226852,3", "misa_like_curve.csv: line 4: expected 2 columns"),
    ("1,2.0x", "misa_like_curve.csv: line 4: could not convert string to "
               "float: '2.0x'"),
    # non-finite cells, once passed on to fail as the actuator's section
    ("1,nan", "misa_like_curve.csv: line 4: cells must be finite, "
              "got ['1', 'nan']"),
    ("inf,2.01461226852", "misa_like_curve.csv: line 4: cells must be "
                          "finite, got ['inf', '2.01461226852']"),
    ("1,1e400", "misa_like_curve.csv: line 4: cells must be finite, "
                "got ['1', '1e400']"),
    pytest.param("1," + "1" * (csv.field_size_limit() + 1),
                 "misa_like_curve.csv: CSV error: field larger than field "
                 "limit", id="overlong-cell"),
])
def test_bad_table_rows_are_one_line_errors(tmp_path, capsys, row,
                                            fragment):
    curve = (DATA_DIR / "misa_like_curve.csv").read_text()
    assert curve.splitlines()[3] == "1,2.01461226852"
    lines = curve.splitlines(keepends=True)
    bad = "" if row is None else "".join(lines[:3] + [row + "\n"]
                                         + lines[4:])
    p = _misa_with_curve(tmp_path, bad)
    assert main(["validate", str(p)]) == 1
    assert fragment in _one_line_error(capsys)


def test_blank_table_rows_are_skipped(tmp_path):
    curve = (DATA_DIR / "misa_like_curve.csv").read_text()
    p = _misa_with_curve(tmp_path, curve.replace("\n1,", "\n\n1,", 1))
    assert parse_config(p) == parse_config(DATA_DIR / "misa_like.yaml")


def test_a_curve_csv_may_start_with_a_bom(tmp_path, capsys):
    """A spreadsheet export starts its CSV with a UTF-8 BOM; the curve
    loads as without one, as a YAML config with a BOM does."""
    bom = "\ufeff".encode()
    p = _misa_with_curve(tmp_path, "")
    (tmp_path / "misa_like_curve.csv").write_bytes(
        bom + (DATA_DIR / "misa_like_curve.csv").read_bytes())
    p.write_bytes(bom + p.read_bytes())
    assert main(["validate", str(p)]) == 0
    capsys.readouterr()
    assert parse_config(p) == parse_config(DATA_DIR / "misa_like.yaml")


def test_joint_requires_identical_actuators(tmp_path):
    _write(tmp_path / "a1.yaml", ACT_TPL.format(label="a1"))
    _write(tmp_path / "a2.yaml",
           ACT_TPL.format(label="a2").replace("k_cs: 10.0", "k_cs: 12.0"))
    p = _write(tmp_path / "j.yaml", (
        "joint:\n  actuator_1: a1.yaml\n  actuator_2: a2.yaml\n"
        "  R: 10.0\n  mu_s: 0.1\n  inertia_I: 0.001\n"))
    with pytest.raises(ConfigError, match="identical"):
        parse_config(p)


@pytest.mark.parametrize("field,value,message", [
    ("R", "10.0", "actuator_1 and actuator_2 must share identical "
                  "parameters; the stage algebra assumes a symmetric pair"),
    ("R", "0", "R must be positive, got 0.0"),
    ("mu_s", "1.0", "mu_s must satisfy 0 <= mu_s < 1, got 1.0"),
    ("inertia_I", "0", "inertia_I must be positive, got 0.0"),
])
def test_joint_checks_its_own_fields_before_the_pair(tmp_path, capsys,
                                                     field, value, message):
    _write(tmp_path / "a1.yaml", ACT_TPL.format(label="a1"))
    _write(tmp_path / "a2.yaml",
           ACT_TPL.format(label="a2").replace("k_cs: 10.0", "k_cs: 12.0"))
    fields = {"R": "10.0", "mu_s": "0.1", "inertia_I": "0.001", field: value}
    p = _write(tmp_path / "j.yaml", (
        "joint:\n  actuator_1: a1.yaml\n  actuator_2: a2.yaml\n"
        + "".join(f"  {k}: {v}\n" for k, v in fields.items())))
    assert main(["validate", str(p)]) == 1
    assert _one_line_error(capsys) == (
        f"invalid: {p}: section 'joint': {message}\n")


def test_joint_label_difference_is_allowed(tmp_path):
    _write(tmp_path / "a1.yaml", ACT_TPL.format(label="left"))
    _write(tmp_path / "a2.yaml", ACT_TPL.format(label="right"))
    p = _write(tmp_path / "j.yaml", (
        "joint:\n  actuator_1: a1.yaml\n  actuator_2: a2.yaml\n"
        "  R: 10.0\n  mu_s: 0.1\n  inertia_I: 0.001\n"))
    loaded = parse_config(p)
    assert isinstance(loaded, LoadedJoint)
    assert loaded.delta == 0.087   # documented default test deflection
    assert loaded.joint.actuator.label == "left"   # actuator_1's model


def test_lift_naming_one_file_twice_shares_the_actuator():
    actuators = parse_config(DATA_DIR / "lift_dumbbell.yaml").actuators
    assert actuators[0] is actuators[1]


def test_joint_rejects_nonpositive_delta(tmp_path):
    _write(tmp_path / "a1.yaml", ACT_TPL.format(label="x"))
    p = _write(tmp_path / "j.yaml", (
        "joint:\n  actuator_1: a1.yaml\n  actuator_2: a1.yaml\n"
        "  R: 10.0\n  mu_s: 0.1\n  inertia_I: 0.001\n  delta: 0.0\n"))
    with pytest.raises(ConfigError,
                       match="field 'delta' must be finite and > 0, got 0.0"):
        parse_config(p)


def test_total_travel_must_exceed_tendon_stretch(tmp_path):
    p = _write(tmp_path / "a.yaml",
               ACT_TPL.format(label="x") + "  d_m_total: 2.0\n")
    with pytest.raises(ConfigError, match="leaves no element travel"):
        parse_config(p)


def test_at_most_one_travel_field(tmp_path):
    p = _write(tmp_path / "a.yaml", ACT_TPL.format(label="x")
               + "  d_m_total: 13.0\n  d_max_element: 10.0\n")
    with pytest.raises(ConfigError,
                       match="at most one of d_max_element / d_m_total"):
        parse_config(p)


def test_chain_rom_pair_validation(tmp_path):
    p = _write(tmp_path / "c.yaml", (
        "chain:\n  link_lengths: {b: 0.3, c: 0.25, d: 0.08}\n"
        "  rom_deg:\n    theta_21: [0.0]\n"))
    with pytest.raises(ConfigError, match=r"\[lo, hi\] pair"):
        parse_config(p)


def test_chain_row_link_name_must_exist(tmp_path):
    p = _write(tmp_path / "c.yaml", (
        "chain:\n  link_lengths: {b: 0.3, c: 0.25, d: 0.08}\n"
        "  rows:\n"
        "    - {alpha_deg: 90, theta_offset_deg: 0, joint: theta_31, d: e}\n"))
    with pytest.raises(ConfigError, match="unknown link length 'e'"):
        parse_config(p)


def test_chain_without_rows_is_the_default_arm(tmp_path, capsys):
    # the bundled arm.yaml spells out the rows and ROM of the default arm
    p = _write(tmp_path / "bare_arm.yaml",
               "chain:\n  link_lengths: {b: 0.30, c: 0.25, d: 0.08}\n")
    assert parse_config(p) == default_arm() == parse_config(
        DATA_DIR / "arm.yaml")
    outputs = []
    for k, config in enumerate(("arm.yaml", "bare_arm.yaml")):
        spec = _write(tmp_path / "ws.yaml",
                      WS_SPEC.replace("arm.yaml", config))
        out = tmp_path / f"o{k}"
        assert main(["run", str(spec), "--out", str(out), "--seed",
                     "7"]) == 0
        outputs.append((out / "ws_small.csv").read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


# --------------------------------------------------------------------------
# file resolution


def test_bare_name_falls_back_to_bundled_data():
    model = parse_config(DATA_DIR / "ica.yaml")
    assert main(["validate", "ica.yaml"]) == 0
    assert model.label == "ica"


def test_env_dir_beats_bundled_data(tmp_path, monkeypatch, capsys):
    shadow = tmp_path / "envdir"
    shadow.mkdir()
    _write(shadow / "eca.yaml", ACT_TPL.format(label="shadowed"))
    monkeypatch.setenv(ENV_CONFIG_DIR, str(shadow))
    assert main(["validate", "eca.yaml"]) == 0
    assert "actuator 'shadowed'" in capsys.readouterr().out


def test_referencing_file_dir_beats_env_dir(tmp_path, monkeypatch):
    local = tmp_path / "local"
    envd = tmp_path / "env"
    local.mkdir()
    envd.mkdir()
    _write(local / "act.yaml", ACT_TPL.format(label="local"))
    _write(envd / "act.yaml", ACT_TPL.format(label="env"))
    monkeypatch.setenv(ENV_CONFIG_DIR, str(envd))
    j = _write(local / "j.yaml", (
        "joint:\n  actuator_1: act.yaml\n  actuator_2: act.yaml\n"
        "  R: 10.0\n  mu_s: 0.1\n  inertia_I: 0.001\n"))
    loaded = parse_config(j)
    assert loaded.joint.actuator.label == "local"


def test_search_order_is_referencing_dir_env_dir_cwd_then_bundled(
        tmp_path, monkeypatch):
    from tendonsim.config import _resolve
    ref, env, cwd = (tmp_path / d for d in ("ref", "env", "cwd"))
    places = [ref, env, cwd]
    for d in places:
        d.mkdir()
        (d / "eca.yaml").write_text(ACT_TPL.format(label=d.name))
    monkeypatch.setenv(ENV_CONFIG_DIR, str(env))
    monkeypatch.chdir(cwd)
    # each place wins while its copy exists; removing it uncovers the next
    for d in places:
        assert _resolve("eca.yaml", ref).samefile(d / "eca.yaml")
        (d / "eca.yaml").unlink()
    assert _resolve("eca.yaml", ref) == DATA_DIR / "eca.yaml"


def test_help_names_the_search_order(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    places = ["referencing file's directory", f"${ENV_CONFIG_DIR}",
              "current directory", "bundled data directory"]
    at = [text.index(place) for place in places]
    assert at == sorted(at)


def test_missing_file_lists_candidates(tmp_path):
    from tendonsim.config import _resolve
    with pytest.raises(ConfigError, match="file not found; tried"):
        _resolve("no_such_config.yaml", tmp_path)


def test_missing_absolute_path(tmp_path):
    from tendonsim.config import _resolve
    with pytest.raises(ConfigError, match="file not found"):
        _resolve(tmp_path / "absent.yaml", None)


LONG_NAME = "x" * 300 + ".yaml"   # past the usual 255-byte name limit


def test_config_name_past_the_name_limit_is_not_found(capsys):
    assert main(["validate", LONG_NAME]) == 1
    err = _one_line_error(capsys)
    assert f"{LONG_NAME}: file not found; tried " in err


def test_spec_config_past_the_name_limit_is_not_found(tmp_path, capsys):
    spec = _write(tmp_path / "fd.yaml",
                  FD_SPEC.replace("config: ica.yaml", f"config: {LONG_NAME}"))
    assert main(["validate", str(spec)]) == 1
    assert f"{LONG_NAME}: file not found; tried " in _one_line_error(capsys)


def test_table_past_the_name_limit_is_not_found(tmp_path, capsys):
    text = (DATA_DIR / "misa_like.yaml").read_text()
    p = _write(tmp_path / "misa.yaml", text.replace(
        "table: misa_like_curve.csv", f"table: {LONG_NAME}"))
    assert main(["validate", str(p)]) == 1
    assert f"{LONG_NAME}: file not found; tried " in _one_line_error(capsys)


def test_bundled_setup_calls_no_path_resolve(monkeypatch):
    calls = []
    resolve = Path.resolve
    monkeypatch.setattr(Path, "resolve",
                        lambda self, *a: calls.append(self) or resolve(
                            self, *a))
    for spec in sorted(DATA_DIR.glob("exp_*.yaml")):
        parse_experiment(spec)
    assert calls == []


# --------------------------------------------------------------------------
# experiment runs


FD_SPEC = """\
experiment:
  kind: ForceDisplacement
  config: ica.yaml
  sweep:
    d: {start: 0.0, stop: 40.0, step: 5.0}
  output: fd_small
"""

WS_SPEC = """\
experiment:
  kind: Workspace
  config: arm.yaml
  n: 200
  output: ws_small
"""


def test_run_force_displacement(tmp_path, capsys):
    spec = _write(tmp_path / "fd.yaml", FD_SPEC)
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    # 9 grid points plus the merged force-limit breakpoint
    assert printed["experiment"] == "ForceDisplacement"
    assert printed["rows"] == 10
    csv_path = out / "fd_small.csv"
    summary_path = out / "fd_small_summary.json"
    assert csv_path.is_file() and summary_path.is_file()
    validate_csv_schema(csv_path)
    assert json.loads(summary_path.read_text()) == printed
    header = csv_path.read_text().splitlines()[0]
    assert header == "displacement_mm,force_N"


def test_run_format_override_to_json(tmp_path, capsys):
    spec = _write(tmp_path / "fd.yaml", FD_SPEC)
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out),
                 "--format", "json"]) == 0
    capsys.readouterr()
    payload = json.loads((out / "fd_small.json").read_text())
    assert payload["columns"] == ["displacement_mm", "force_N"]
    assert len(payload["rows"]) == 10
    assert not (out / "fd_small.csv").exists()


def test_run_experiment_api_returns_paths(tmp_path):
    spec = parse_experiment(_write(tmp_path / "fd.yaml", FD_SPEC))
    result = run_experiment(spec, out_dir=tmp_path / "out")
    assert result.output_path.is_file()
    assert result.summary_path.is_file()
    assert result.summary["rows"] == 10
    assert result.summary["breakpoint_N"] == 112.4


def test_workspace_needs_a_seed(tmp_path, capsys):
    spec = _write(tmp_path / "ws.yaml", WS_SPEC)
    assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 1
    assert "needs a seed" in capsys.readouterr().err


def test_workspace_seed_determinism(tmp_path, capsys):
    spec = _write(tmp_path / "ws.yaml", WS_SPEC)
    for d, seed in (("o1", "5"), ("o2", "5"), ("o3", "6")):
        assert main(["run", str(spec), "--out", str(tmp_path / d),
                     "--seed", seed]) == 0
        capsys.readouterr()
    b1 = (tmp_path / "o1" / "ws_small.csv").read_bytes()
    b2 = (tmp_path / "o2" / "ws_small.csv").read_bytes()
    b3 = (tmp_path / "o3" / "ws_small.csv").read_bytes()
    assert b1 == b2
    assert b1 != b3
    assert len(b1.splitlines()) == 201


def test_run_reports_sweep_coordinate_on_failure(tmp_path, capsys):
    spec = _write(tmp_path / "acc.yaml", (
        "experiment:\n  kind: MaxAcceleration\n  config: ica_joint.yaml\n"
        "  sweep:\n    d_s: {start: 0.0, stop: 60.0, step: 10.0}\n"
        "  output: acc_bad\n"))
    assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "at (40)" in err


def test_vector_sweep_failure_names_the_first_bad_coordinate(tmp_path,
                                                             capsys):
    spec = _write(tmp_path / "ts.yaml", (
        "experiment:\n  kind: TorqueSurface\n  config: ica_joint.yaml\n"
        "  sweep:\n    d_s: {start: -1.0, stop: 2.0, step: 1.0}\n"
        "    d_t: {start: 0.0, stop: 2.0, step: 1.0}\n"
        "  output: ts_bad\n"))
    assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: joint_torque at (-1, 0): d_s must be >= 0, got -1.0\n")


@pytest.mark.parametrize("n", [1, 2, 3, 100, 4097])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_sweep_fault_is_found_by_bisection(n, where):
    # the point the error names is the first one a scalar search fails on,
    # found in O(log n) calls on windows that halve, so a fault near the end
    # of a sweep at the run size limit costs seconds, not minutes
    j = parse_config(DATA_DIR / "ica_joint.yaml").joint
    bad = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    ds = np.linspace(0.0, 30.0, n)
    dt = ds[::-1].copy()
    ds[bad] = -1.0
    ds[bad + 1::7] = -2.0          # later faults, with another message
    calls = []

    def fn(ds, dt):
        calls.append(np.size(ds))
        return joint.joint_torque(j, ds, dt)

    with pytest.raises(ExperimentError) as got:
        _sweep_eval(fn, "joint_torque", ds, dt)
    for point in zip(ds.tolist(), dt.tolist()):
        try:
            joint.joint_torque(j, *point)
        except ValueError as exc:
            expected = f"joint_torque at ({point[0]:g}, {point[1]:g}): {exc}"
            break
    assert str(got.value) == expected
    assert len(calls) <= 2 * math.ceil(math.log2(n)) + 2
    assert sum(calls) <= 2 * n + 1    # the windows halve: O(n) work


@pytest.mark.parametrize("config, below, above", [
    ("ica.yaml", 3.178807947019868, 30.0),
    ("eca.yaml", 8.863636363636363, 60.0),
    ("misa_like.yaml", 18.490728132747833, 60.0),  # the last knot segment
])
def test_force_displacement_slopes_are_the_models_own(tmp_path, config,
                                                      below, above):
    spec = parse_experiment(_write(tmp_path / "fd.yaml",
                                   FD_SPEC.replace("ica.yaml", config)))
    summary = run_experiment(spec, out_dir=tmp_path / "out").summary
    assert summary["slope_below_N_per_mm"] == below
    assert summary["slope_above_N_per_mm"] == above == spec.model.k_t
    assert spec.model.k_et in (below, None)


def test_lift_integration_fault_is_a_one_line_error(tmp_path, capsys):
    # passes validate: the state overflows only once the lift runs
    lift = (DATA_DIR / "lift_dumbbell.yaml").read_text()
    _write(tmp_path / "lift_dumbbell.yaml",
           lift.replace("t_max: 5.0", "t_max: 5.0\n  gravity: 1.0e308"))
    spec = _write(tmp_path / "lift.yaml",
                  (DATA_DIR / "exp_lift.yaml").read_text())
    assert main(["validate", str(tmp_path / "lift_dumbbell.yaml")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 1
    assert _one_line_error(capsys, "error: ") == (
        "error: Lift: non-finite state at t=0.0003 s; integration fault\n")
    assert list(out.iterdir()) == []


def test_run_rejects_wrong_config_type(tmp_path):
    spec = parse_experiment(_write(tmp_path / "fd.yaml", FD_SPEC))
    arm = parse_config(DATA_DIR / "arm.yaml")
    bad = dataclasses.replace(spec, model=arm)
    with pytest.raises(ExperimentError, match="needs a actuator config"):
        run_experiment(bad, out_dir=tmp_path)


@pytest.mark.parametrize("override", [True, False])
@pytest.mark.parametrize("fmt", ["xml", "CSV", "Json", ""])
def test_run_rejects_a_format_but_csv_or_json(tmp_path, fmt, override):
    spec = parse_experiment(_write(tmp_path / "fd.yaml", FD_SPEC))
    message = f"format must be csv or json, got {fmt!r}"
    if not override:    # a spec built in code, not parsed
        spec, fmt = dataclasses.replace(spec, fmt=fmt), None
    out = tmp_path / "o"
    with pytest.raises(ExperimentError, match=re.escape(message)):
        run_experiment(spec, out_dir=out, fmt=fmt)
    assert not out.exists()


@pytest.mark.parametrize("override", [True, False])
@pytest.mark.parametrize("seed", [True, False, 1.0, "1"])
def test_run_rejects_a_seed_but_an_int(tmp_path, seed, override):
    spec = parse_experiment(_write(tmp_path / "ws.yaml", WS_SPEC))
    message = f"seed must be an integer, got {seed!r}"
    if not override:
        spec, seed = dataclasses.replace(spec, seed=seed), None
    out = tmp_path / "o"
    with pytest.raises(ExperimentError, match=re.escape(message)):
        run_experiment(spec, out_dir=out, seed=seed)
    assert not out.exists()


@pytest.mark.parametrize("name, fragment", [
    ("exp_lift.yaml", "t_max/dt allows more than 10 steps"),
    ("exp_workspace.yaml", "Workspace needs 1 <= n <= 10"),
    ("exp_torque_surface.yaml", "the sweep grid has more than 10 points"),
])
def test_one_patch_of_the_run_point_limit_reaches_each_check(
        monkeypatch, name, fragment):
    # the limit is defined once, in config, and read there by every check
    monkeypatch.setattr(config, "MAX_RUN_POINTS", 10)
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_experiment(DATA_DIR / name)


@pytest.mark.parametrize("spec_name,config,message", [
    ("exp_workspace.yaml", "ica.yaml",
     "is an actuator config; Workspace needs a chain config"),
    ("exp_lift.yaml", "ica_joint.yaml",
     "is a joint config; Lift needs a lift config"),
    ("exp_force_displacement.yaml", "arm.yaml",
     "is a chain config; ForceDisplacement needs an actuator config"),
])
def test_spec_naming_a_config_of_another_type(tmp_path, capsys, spec_name,
                                              config, message):
    doc = yaml.safe_load((DATA_DIR / spec_name).read_text())
    doc["experiment"]["config"] = config
    spec = _write(tmp_path / "exp.yaml", yaml.safe_dump(doc))
    assert main(["validate", str(spec)]) == 1
    assert _one_line_error(capsys) == (
        f"invalid: {spec}: section 'experiment': {DATA_DIR / config} "
        f"{message}\n")


@pytest.mark.parametrize("output", ["fd.v2", "nosuchdir/fd", "a\\b",
                                    "/abs/fd", "", ".", "..", "fd\0"])
def test_output_must_be_a_bare_name(tmp_path, capsys, output):
    doc = yaml.safe_load(FD_SPEC)
    doc["experiment"]["output"] = output
    spec = _write(tmp_path / "fd.yaml", yaml.safe_dump(doc))
    out = tmp_path / "o"
    assert main(["run", str(spec), "--out", str(out)]) == 1
    assert ("section 'experiment': field 'output' must be a nonempty file "
            "name without '/', '\\', '.' or NUL, got "
            in _one_line_error(capsys, "error: "))
    assert not out.exists()


@pytest.mark.parametrize("config_name, kind", [
    ("ica.yaml", "an actuator"), ("arm.yaml", "a chain"),
    ("lift_dumbbell.yaml", "a lift")])
def test_run_of_a_config_but_a_spec_names_its_type(tmp_path, capsys,
                                                   config_name, kind):
    # it once said "section 'experiment' must be a mapping"
    out = tmp_path / "o"
    assert main(["run", config_name, "--out", str(out)]) == 1
    assert _one_line_error(capsys, "error: ") == (
        f"error: {DATA_DIR / config_name}: the file is {kind} config; run "
        f"needs an experiment config\n")
    assert not out.exists()


def _files_named_by(spec_name):
    """A bundled spec, its config and the config's actuator files."""
    config_name = yaml.safe_load((DATA_DIR / spec_name).read_text())[
        "experiment"]["config"]
    (section,) = yaml.safe_load((DATA_DIR / config_name).read_text()).values()
    actuators = [section[k] for k in ("actuator_1", "actuator_2")
                 if k in section] + section.get("actuators", [])
    return [spec_name, config_name, *dict.fromkeys(actuators)]


@pytest.mark.parametrize("spec_name, target", [
    (p.name, target) for p in sorted(DATA_DIR.glob("exp_*.yaml"))
    for target in _files_named_by(p.name)])
def test_validate_and_run_apply_one_top_level_rule_to_every_file(
        tmp_path, capsys, spec_name, target):
    for p in DATA_DIR.iterdir():
        shutil.copy(p, tmp_path)
    with open(tmp_path / target, "a") as fh:
        fh.write("notes: 1\n")
    spec, out = str(tmp_path / spec_name), tmp_path / "out"
    error = f"{tmp_path / target}: unknown top-level keys ['notes']\n"
    assert main(["validate", spec]) == 1
    assert _one_line_error(capsys) == f"invalid: {error}"
    assert main(["run", spec, "--out", str(out)]) == 1
    assert _one_line_error(capsys, "error: ") == f"error: {error}"
    assert not out.exists()


@pytest.mark.parametrize("spec_name, target, old, new, message", [
    ("exp_force_displacement.yaml", "exp_force_displacement.yaml",
     "format: csv", "format: csv\nnotes: 1",
     "unknown top-level keys ['notes']"),
    ("exp_force_displacement.yaml", "exp_force_displacement.yaml",
     "format: csv", "format: csv\n  notes: 1",
     "section 'experiment': unknown keys ['notes']"),
    ("exp_force_displacement.yaml", "ica.yaml", "mu_p: 0.1",
     "mu_p: 0.1\n  mu: 0.1", "section 'actuator': unknown keys ['mu']"),
    ("exp_stiffness_range.yaml", "eca_joint.yaml", "delta: 0.087",
     "delta: 0.087\n  deltaa: 0.1", "section 'joint': unknown keys ['deltaa']"),
    ("exp_lift.yaml", "lift_dumbbell.yaml", "t_max: 5.0",
     "t_max: 5.0\n  gravty: 1.62", "section 'lift': unknown keys ['gravty']"),
    ("exp_force_displacement.yaml", "exp_force_displacement.yaml",
     "    d: {", "    x: {start: 0.0, stop: 1.0, step: 0.5}\n    d: {",
     "section 'experiment.sweep': unknown keys ['x']"),
    ("exp_force_displacement.yaml", "exp_force_displacement.yaml",
     "step: 0.1}", "step: 0.1, stepp: 1}",
     "section 'experiment.sweep.d': unknown keys ['stepp']"),
    ("exp_workspace.yaml", "arm.yaml", "    d: 0.08", "    e: 1\n    d: 0.08",
     "section 'chain.link_lengths': unknown keys ['e']"),
    ("exp_workspace.yaml", "arm.yaml", "    theta_31: [-40, 65]",
     "    theta_31: [-40, 65]\n    theta_99: [0, 1]",
     "section 'chain': ROM intervals for unknown joints ['theta_99']"),
    ("exp_workspace.yaml", "arm.yaml", "{joint: theta_32, a: 0,",
     "{joint: theta_32, z: 0, a: 0,",
     "section 'chain.rows[2]': unknown keys ['z']"),
])
def test_an_unknown_key_at_any_level_is_a_one_line_error(
        tmp_path, capsys, spec_name, target, old, new, message):
    for p in DATA_DIR.iterdir():
        shutil.copy(p, tmp_path)
    text = (tmp_path / target).read_text()
    assert text.count(old) == 1
    (tmp_path / target).write_text(text.replace(old, new))
    spec, out = str(tmp_path / spec_name), tmp_path / "out"
    error = f"{tmp_path / target}: {message}"
    assert main(["validate", spec]) == 1
    assert _one_line_error(capsys).startswith(f"invalid: {error}")
    assert main(["run", spec, "--out", str(out)]) == 1
    assert _one_line_error(capsys, "error: ").startswith(f"error: {error}")
    assert not out.exists()


@pytest.mark.parametrize("config_name, field, value, wrong, kind", [
    ("ica_joint.yaml", "actuator_1", "arm.yaml", "arm.yaml", "a chain"),
    ("eca_joint.yaml", "actuator_2", "exp_lift.yaml", "exp_lift.yaml",
     "an experiment"),
    ("lift_dumbbell.yaml", "actuators", ["eca.yaml", "ica_joint.yaml"],
     "ica_joint.yaml", "a joint"),
])
def test_an_actuator_file_of_another_type_is_a_section_error(
        tmp_path, capsys, config_name, field, value, wrong, kind):
    # before, such a file was parsed as an actuator: "section 'actuator'
    # must be a mapping", naming the wrong file
    doc = yaml.safe_load((DATA_DIR / config_name).read_text())
    (section,) = doc
    doc[section][field] = value
    p = _write(tmp_path / config_name, yaml.safe_dump(doc))
    assert main(["validate", str(p)]) == 1
    assert _one_line_error(capsys) == (
        f"invalid: {p}: section '{section}': {DATA_DIR / wrong} is {kind} "
        f"config; {section} needs an actuator config\n")


@pytest.mark.parametrize("spec_name, change, message", [
    ("exp_force_displacement.yaml", {"output": "../x"},
     "field 'output' must be a nonempty file name without '/', '\\', '.' "
     "or NUL, got '../x'"),
    ("exp_force_displacement.yaml", {"sweeps": {}},
     "ForceDisplacement needs the sweeps ['d'], got []"),
    ("exp_torque_surface.yaml", {"sweeps": {"d_s": GridSpec(0.0, 1.0, 0.5)}},
     "TorqueSurface needs the sweeps ['d_s', 'd_t'], got ['d_s']"),
    ("exp_stiffness_range.yaml", {"sweeps": {"d_s": GridSpec(0.0, 1.0, 0.5)}},
     "StiffnessRange needs the sweeps [], got ['d_s']"),
    ("exp_workspace.yaml", {"n": MAX_RUN_POINTS + 1},
     f"Workspace needs 1 <= n <= {MAX_RUN_POINTS}"),
    ("exp_workspace.yaml", {"n": 10 ** 13},
     f"Workspace needs 1 <= n <= {MAX_RUN_POINTS}"),
    ("exp_force_displacement.yaml",
     {"sweeps": {"d": GridSpec(0.0, MAX_RUN_POINTS, 1.0)}},
     f"the sweep grid has more than {MAX_RUN_POINTS} points"),
])
def test_run_checks_a_built_spec_by_the_parsers_rules(tmp_path, spec_name,
                                                      change, message):
    spec = dataclasses.replace(parse_experiment(DATA_DIR / spec_name),
                               **change)
    with pytest.raises(ExperimentError, match=f"^{re.escape(message)}$"):
        run_experiment(spec, out_dir=tmp_path / "out" / "o", seed=1)
    assert list(tmp_path.iterdir()) == []   # no file, no directory


@pytest.mark.parametrize("spec_name, change, message", [
    ("exp_stiffness_vs_pretension.yaml", {"delta": None},
     "delta must be a finite number > 0, got None"),
    ("exp_stiffness_range.yaml", {"delta": "0.1"},
     "delta must be a finite number > 0, got '0.1'"),
    ("exp_force_displacement.yaml", {"delta": float("nan")},
     "delta must be a finite number > 0, got nan"),
    ("exp_max_torque.yaml", {"delta": -math.inf},
     "delta must be a finite number > 0, got -inf"),
    ("exp_force_displacement.yaml", {"output": 5},
     "field 'output' must be a nonempty file name without '/', '\\', '.' "
     "or NUL, got 5"),
    ("exp_force_displacement.yaml", {"sweeps": {"d": (0.0, 1.0, 0.5)}},
     "sweeps must map variables to GridSpecs, got {'d': (0.0, 1.0, 0.5)}"),
    ("exp_force_displacement.yaml", {"sweeps": ("d",)},
     "sweeps must map variables to GridSpecs, got ('d',)"),
    ("exp_force_displacement.yaml", {"fmt": ["csv"]},
     "format must be csv or json, got ['csv']"),
    ("exp_workspace.yaml", {"n": 100.0},
     f"Workspace needs 1 <= n <= {MAX_RUN_POINTS}"),
])
def test_run_rejects_a_built_spec_with_a_field_of_the_wrong_type(
        tmp_path, spec_name, change, message):
    # each of these ended in a TypeError or AttributeError traceback
    spec = dataclasses.replace(parse_experiment(DATA_DIR / spec_name),
                               **change)
    with pytest.raises(ExperimentError, match=f"^{re.escape(message)}$"):
        run_experiment(spec, out_dir=tmp_path / "out", seed=1)
    assert list(tmp_path.iterdir()) == []   # no file, no directory


def test_run_checks_the_step_count_of_a_built_lift(tmp_path, monkeypatch):
    # the bundled lift takes 7,102 steps; only the lift parser checked the
    # bound, so a lift built in code, say at dt = 1e-8, ran unbounded
    spec = parse_experiment(DATA_DIR / "exp_lift.yaml")
    monkeypatch.setattr(config, "MAX_RUN_POINTS", 1000)
    with pytest.raises(ExperimentError,
                       match="^t_max/dt allows more than 1000 steps$"):
        run_experiment(spec, out_dir=tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_the_config_types_are_the_config_sections():
    assert tuple(cli.CONFIG_TYPES) == config.CONFIG_SECTIONS


def test_out_naming_a_file_is_a_one_line_error(tmp_path, capsys):
    spec = _write(tmp_path / "fd.yaml", FD_SPEC)
    out = _write(tmp_path / "o", "")
    assert main(["run", str(spec), "--out", str(out)]) == 1
    assert _one_line_error(capsys, "error: ") == (
        f"error: {out}: cannot create the output directory: File exists\n")


def test_unwritable_output_is_a_one_line_error(tmp_path, capsys):
    spec = _write(tmp_path / "fd.yaml", FD_SPEC)
    out = tmp_path / "o"
    (out / "fd_small.csv").mkdir(parents=True)  # a directory in the way
    assert main(["run", str(spec), "--out", str(out)]) == 1
    assert _one_line_error(capsys, "error: ").startswith(
        f"error: {out / 'fd_small.csv'}: cannot write: ")
    assert sorted(p.name for p in out.iterdir()) == ["fd_small.csv"]


@pytest.mark.parametrize("fault", [OSError(28, "No space left on device"),
                                   KeyboardInterrupt()])
def test_write_failing_mid_render_leaves_no_data_file(tmp_path, monkeypatch,
                                                      fault):
    real = emit._row_blocks

    def failing_blocks(columns, row):
        blocks = real(columns, row)
        yield next(blocks)
        raise fault

    monkeypatch.setattr(emit, "_row_blocks", failing_blocks)
    spec = parse_experiment(DATA_DIR / "exp_lift.yaml")
    out = tmp_path / "o"
    expected = (ExperimentError if isinstance(fault, OSError)
                else KeyboardInterrupt)
    with pytest.raises(expected):
        run_experiment(spec, out_dir=out)
    assert list(out.iterdir()) == []


def _no_space(*args):
    raise OSError(28, "No space left on device")


def _refuse_summary_rename(monkeypatch):
    """Make the rename onto fd_small_summary.json fail for want of space,
    after the data file's rename has happened."""
    real = emit.os.replace

    def replace(src, dst):
        if Path(dst).name == "fd_small_summary.json":
            _no_space()
        real(src, dst)

    monkeypatch.setattr(emit.os, "replace", replace)


@pytest.mark.parametrize("failing", ["summary", "data", "summary-rename"])
def test_a_failed_run_leaves_the_previous_files_as_they_were(
        tmp_path, monkeypatch, capsys, failing):
    out = tmp_path / "o"
    assert main(["run", str(_write(tmp_path / "fd.yaml", FD_SPEC)),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["fd_small.csv", "fd_small_summary.json"]
    if failing == "summary":
        real = cli._replacing

        @contextmanager
        def full_summary(path):
            with real(path):
                yield SimpleNamespace(write=_no_space)

        monkeypatch.setattr(cli, "_replacing", full_summary)
        name = "fd_small_summary.json"
    elif failing == "summary-rename":
        _refuse_summary_rename(monkeypatch)
        name = "fd_small_summary.json"
    else:
        monkeypatch.setattr(emit, "_slot_rows", _no_space)
        name = "fd_small.csv"
    # the second run would write 11 rows over the first run's 9
    spec = _write(tmp_path / "fd2.yaml", FD_SPEC.replace(
        "{start: 0.0, stop: 40.0, step: 5.0}",
        "{start: 0.0, stop: 10.0, step: 1.0}"))
    assert main(["run", str(spec), "--out", str(out)]) == 1
    assert _one_line_error(capsys, "error: ") == (
        f"error: {out / name}: cannot write: No space left on device\n")
    # the same two files, byte for byte, and no temporary file beside them
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_failed_first_run_leaves_no_files(tmp_path, monkeypatch, capsys):
    # no previous data file to put back: the new one is removed
    _refuse_summary_rename(monkeypatch)
    out = tmp_path / "o"
    assert main(["run", str(_write(tmp_path / "fd.yaml", FD_SPEC)),
                 "--out", str(out)]) == 1
    assert _one_line_error(capsys, "error: ") == (
        f"error: {out / 'fd_small_summary.json'}: cannot write: "
        f"No space left on device\n")
    assert list(out.iterdir()) == []


def test_parse_experiment_accepts_a_str_path(tmp_path):
    spec = parse_experiment(str(_write(tmp_path / "fd.yaml", FD_SPEC)))
    assert spec.output == "fd_small"
    assert spec.sweeps["d"] == GridSpec(start=0.0, stop=40.0, step=5.0)


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("field", [
    "payload_mass", "limb_mass", "limb_com_distance", "payload_distance",
    "joint_R", "theta_start_deg", "theta_target_deg", "dt", "t_max",
    "gravity"])
def test_lift_rejects_non_finite_fields(tmp_path, capsys, field, value):
    doc = yaml.safe_load((DATA_DIR / "lift_dumbbell.yaml").read_text())
    doc["lift"][field] = yaml.safe_load(value)
    _write(tmp_path / "lift.yaml", yaml.safe_dump(doc))
    spec = _write(tmp_path / "exp.yaml", (
        "experiment:\n  kind: Lift\n  config: lift.yaml\n"
        "  output: lift_bad\n"))
    assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{field.removesuffix('_deg')} must be finite" in err


@pytest.mark.parametrize("spec_name", ["exp_stiffness_vs_pretension.yaml",
                                       "exp_stiffness_range.yaml"])
@pytest.mark.parametrize("value", ["-0.1", "0.0", ".nan", ".inf"])
def test_experiment_delta_must_be_finite_and_positive(tmp_path, capsys,
                                                      spec_name, value):
    doc = yaml.safe_load((DATA_DIR / spec_name).read_text())
    doc["experiment"]["delta"] = yaml.safe_load(value)
    spec = _write(tmp_path / "exp.yaml", yaml.safe_dump(doc))
    assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "field 'delta' must be finite and > 0" in err


def test_unknown_experiment_kind(tmp_path):
    p = _write(tmp_path / "e.yaml", FD_SPEC.replace(
        "ForceDisplacement", "Teleportation"))
    with pytest.raises(ConfigError, match="unknown kind 'Teleportation'"):
        parse_config(p)


# --------------------------------------------------------------------------
# CSV schema gate


def test_schema_accepts_valid_file(tmp_path):
    p = _write(tmp_path / "ok.csv",
               "d_s_mm,stage_label,K_s_Nmm_per_rad\n1.0,S2,320.5\n")
    validate_csv_schema(p)


@pytest.mark.parametrize("text,fragment", [
    ("displacement,force_N\n1,2\n", "lacks a known unit suffix"),
    ("d_mm,force_N\n1,abc\n", "non-numeric cell"),
    ("d_mm,force_N\n1,nan\n", "non-finite cell"),
    ("d_mm,force_N\n1\n", "expected 2 cells"),
    ("d_mm,stage_label\n1,\n", "empty label"),
    ("", "missing header row"),
])
def test_schema_rejections(tmp_path, text, fragment):
    from tendonsim.cli import SchemaError
    p = _write(tmp_path / "bad.csv", text)
    with pytest.raises(SchemaError, match=fragment):
        validate_csv_schema(p)


# --------------------------------------------------------------------------
# sweep grids


def test_grid_points_inclusive_when_step_divides():
    g = GridSpec(0.0, 1.0, 0.25)
    assert g.points().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert g.count() == 5


def test_grid_appends_stop_when_step_does_not_divide():
    g = GridSpec(0.0, 1.0, 0.3)
    pts = g.points()
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert len(pts) == 5 == g.count()


def test_grid_handles_float_noise():
    g = GridSpec(0.0, 35.0, 0.25)
    pts = g.points()
    assert len(pts) == 141 == g.count()
    assert pts[-1] == 35.0


@pytest.mark.parametrize("kw", [
    dict(start=0.0, stop=1.0, step=0.0),
    dict(start=0.0, stop=1.0, step=-0.5),
    dict(start=2.0, stop=1.0, step=0.5),
    dict(start=float("nan"), stop=1.0, step=0.5),
    dict(start=-1e308, stop=1e308, step=1.0),    # (stop - start) overflows
    dict(start=0.0, stop=1e300, step=1e-300),    # the count overflows
])
def test_grid_validation(kw):
    with pytest.raises(ValueError):
        GridSpec(**kw)


def test_merge_exact_inserts_breakpoints_inside_span():
    assert (_merge_exact([0.0, 1.0, 2.0], [1.5, 5.0]).tolist()
            == [0.0, 1.0, 1.5, 2.0])


def test_merge_exact_collapses_near_duplicates_onto_exact_value():
    assert (_merge_exact([0.0, 1.0 + 2e-10, 2.0], [1.0]).tolist()
            == [0.0, 1.0, 2.0])
    assert (_merge_exact([0.0, 1.0 - 2e-10, 2.0], [1.0]).tolist()
            == [0.0, 1.0, 2.0])


def test_a_fine_grid_keeps_every_point(tmp_path):
    # grid points 1e-10 apart once collapsed onto each other, leaving 10
    # of the 101 rows; the benchmark's oracle, loaded by path, rebuilds the
    # grid from the raw spec and checks every row
    spec = _write(tmp_path / "fine.yaml", (
        "experiment:\n"
        "  kind: ForceDisplacement\n"
        "  config: eca.yaml\n"
        "  sweep:\n"
        "    d: {start: 0.0, stop: 1.0e-8, step: 1.0e-10}\n"
        "  output: fine\n"))
    result = run_experiment(parse_experiment(spec), out_dir=tmp_path)
    data = result.output_path.read_bytes()
    assert len(data.splitlines()) == 1 + 101
    case = _bench_module("oracle").Case(spec, DATA_DIR)
    assert case.check(data, result.summary_path.read_bytes()) == []


def _sweep_case(kind):
    """(model, breakpoints, top of its grids) of a 1-D sweep kind on the
    bundled ica actuator and joint."""
    if kind == "ForceDisplacement":
        actuator = parse_config(DATA_DIR / "ica.yaml")
        return actuator, [actuator.d_max_total], 45.0
    loaded = parse_config(DATA_DIR / "ica_joint.yaml")
    d_m = loaded.joint.d_m
    if kind == "StiffnessVsPretension":
        return loaded, joint.stage_boundaries(loaded.joint, loaded.delta), 40.0
    return loaded, [d_m / 2.0, d_m], d_m    # defined up to d_m only


@pytest.mark.parametrize("grid", ["fine", "coarse", "off_grid"])
@pytest.mark.parametrize("kind", ["ForceDisplacement",
                                  "StiffnessVsPretension", "MaxAcceleration",
                                  "MaxTorqueVsPretension"])
def test_a_sweep_writes_its_grid_and_breakpoints(tmp_path, kind, grid):
    # count() rows, plus the breakpoints inside the span, less the grid
    # points within 1e-9 of one of them
    model, bps, top = _sweep_case(kind)
    b = bps[0]
    g = {"fine": GridSpec(b - 5e-9, b + 5e-9, 1e-10),  # ~20 collapse onto b
         "coarse": GridSpec(0.0, top, 100.0),           # start and stop
         "off_grid": GridSpec(0.25, top, 0.3)}[grid]
    pts = g.points().tolist()
    inside = [x for x in bps if pts[0] <= x <= pts[-1]]
    collapsed = sum(any(abs(v - x) <= 1e-9 for x in inside) for v in pts)
    var, = EXPERIMENTS[kind].sweeps
    spec = ExperimentSpec(EXPERIMENTS[kind], model, {var: g}, "sweep",
                          delta=getattr(model, "delta", None))
    result = run_experiment(spec, out_dir=tmp_path)
    rows = len(result.output_path.read_bytes().splitlines()) - 1
    assert rows == g.count() + len(inside) - collapsed
    assert grid != "fine" or collapsed >= 19


# --------------------------------------------------------------------------
# the YAML loader, reading each file once, and malformed input


def test_c_loader_is_used_when_pyyaml_has_libyaml():
    base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert yaml12._Loader.__bases__ == (base,)


def _reference_loader(base):
    """Stock PyYAML on base plus the YAML 1.2 exponent floats: what the
    builder must read alike from the events of base's parser."""
    class Reference(base):
        pass
    Reference.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    return Reference


def _builder_on(loader_class):
    """A Loader for yaml.load whose document yaml12's builder builds from
    the events of loader_class's parser."""
    class Builder(loader_class):
        def get_single_data(self):
            return yaml12._build(self)
    return Builder


# the builder on each event source, PyYAML's pure-Python parser and
# libyaml's, with the stock loader on the same parser
SOURCES = [(_builder_on(yaml12._with_yaml12_floats(yaml.SafeLoader)),
            _reference_loader(yaml.SafeLoader))]
if yaml.__with_libyaml__:
    SOURCES.append((_builder_on(yaml12._Loader),
                    _reference_loader(yaml.CSafeLoader)))
SOURCE_IDS = ["python", "libyaml"][:len(SOURCES)]


def _outcome(text, loader):
    try:
        return yaml.load(text, Loader=loader)
    except Exception as exc:
        return type(exc), " ".join(str(exc).split())


DATA_FILES = (sorted(DATA_DIR.glob("*.yaml"))
              + sorted(BENCH_DATA.glob("*.yaml")))


def test_c_and_python_loaders_give_equal_documents():
    texts = [p.read_bytes() for p in DATA_FILES]
    assert len(texts) == 17
    texts += [t.encode() for t in (ACT_TPL.format(label="x"), FD_SPEC,
                                   WS_SPEC, "a: 1e-4\nb: -2E+3\nc: '1e-4'\n")]
    for text in texts:
        doc = yaml12.load(io.BytesIO(text))
        assert isinstance(doc, dict)
        for builder, reference in SOURCES:
            for other in (yaml.load(text, Loader=builder),
                          yaml.load(text, Loader=reference)):
                assert other == doc and repr(other) == repr(doc)


# plain documents, and the errors of the parser and of the scalar
# constructors, which the loaders must meet as stock PyYAML does
LOADER_CASES = [
    "a: &x [1, {b: 2}]\nc: *x\nd: &s 1.5\ne: *s\n",
    "a: !!str 12\nb: !!float 3\nc: !!int '7'\nd: !!null ''\n",
    "a: '1.5'\nb: \"7\"\nc: '1e-4'\nd: 1e-4\n",
    "a: 0o17\nb: 0x1F\nc: 1:20\nd: 1_000\ne: .inf\nf: -.INF\ng: 017\n",
    "a: {}\nb: []\nc:\nd: ~\ne: [{}, []]\n",
    "a: yes\nb: Off\nc: null\nd: TRUE\n",
    "? [1, 2]\n: x\n",
    "{[1]: 2}\n",
    "? {a: 1}\n: 2\n",
    "a: !!int 1" + "0" * 5000 + "\nb: !!bool maybe\n",
    "a: [1\nb: 2\n",
    "- 1\n- [2, 3]\n",
    "just a string\n",
    "",
    "--- 5\n...\n",
    "a: ! 12\nb: ! '12'\n",
    # a parse or composer error is met before a build error, as stock
    # PyYAML composes the whole document before it builds it
    "a: !!bool maybe\nb: [1\n",
    "a: {x: 1, x: 2}\nb: [1, 2\n",
    "? [1]\n: x\n---\nb: 1\n",
    "a: !!int 1" + "0" * 5000 + "\n--- 2\n",
]


@pytest.mark.parametrize("text", [
    pytest.param(t, id=f"case{i}") for i, t in enumerate(LOADER_CASES)] + [
    pytest.param(p.read_bytes(), id=p.name) for p in DATA_FILES])
def test_loaders_read_as_stock_pyyaml(text):
    for builder, reference in SOURCES:
        assert _outcome(text, builder) == _outcome(text, reference)


# what a plain document does not hold, each with the line of its node
@pytest.mark.parametrize("text, line", [
    ("base: &b {x: 1, y: 2}\nchild: {<<: *b, x: 3}\n", 2),
    ("a: &a {x: 1}\nb: &b {x: 2}\nc: {z: 3,\n  <<: [*a, *b]}\n", 4),
    ("a: 1\nt: 2001-12-14t21:59:43.10-05:00\n", 2),
    ("d: 2002-12-14\n", 1),
    ("a: 2001-13-01\n", 1),
    ("a: 1\nb: !!timestamp foo\n", 2),
    ("a: 1\nc: !!binary aGVsbG8=\n", 2),
    ("d: !!set {x, y}\n", 1),
    ("o: [1,\n  !!omap [{a: 1}]]\n", 2),
    ("a: yes\n= : 1\n", 2),
    ("a: !!str [1]\n", 1),
    ("a: !!map [1]\n", 1),
    ("a: 1\nb: !!python/name:os.system\n", 2),
    ("a: !!python/object/apply:os.system [echo]\n", 1),
], ids=["merge", "merge_list", "timestamp", "date", "bad_date",
        "tagged_timestamp", "binary", "set", "omap", "value_key", "str_seq",
        "map_seq", "python_name", "python_object"])
def test_loaders_reject_what_a_plain_document_does_not_hold(text, line):
    for builder, _ in SOURCES:
        with pytest.raises(yaml.constructor.ConstructorError) as exc:
            yaml.load(text, Loader=builder)
        assert str(exc.value).startswith("unsupported ")
        assert exc.value.problem_mark.line + 1 == line


@pytest.mark.parametrize("builder", [b for b, _ in SOURCES], ids=SOURCE_IDS)
@pytest.mark.parametrize("nest", [
    lambda n: "[" * n + "]" * n,
    lambda n: "a: " + "[" * (n - 1) + "]" * (n - 1),
    lambda n: "".join(f"{'  ' * i}k:\n" for i in range(n)) + "  " * n + "1\n",
    lambda n: "".join(f"&a{i} [" for i in range(n)) + "]" * n,
], ids=["flow", "in_a_mapping", "block", "anchored"])
def test_depth_limit_is_64_levels(builder, nest):
    assert yaml12.MAX_DEPTH == 64
    doc, depth = yaml.load(nest(64), Loader=builder), 0
    while isinstance(doc, (list, dict)):
        depth += 1
        doc = next(iter(doc.values() if isinstance(doc, dict) else doc), None)
    assert depth == 64
    with pytest.raises(yaml.YAMLError) as exc:
        yaml.load(nest(65), Loader=builder)
    assert type(exc.value) is yaml.YAMLError
    assert str(exc.value) == "nested too deeply"


@pytest.mark.parametrize("depth", [65, 100_000])
def test_deep_config_is_nested_too_deeply(tmp_path, capsys, depth):
    # rejected at the 65th level, however deep the document goes
    p = _write(tmp_path / "deep.yaml", "a: " + "[" * depth + "]" * depth)
    with pytest.raises(ConfigError) as exc:
        _read_yaml(p)
    assert str(exc.value) == f"{p}: YAML parse error: nested too deeply"
    assert main(["validate", str(p)]) == 1
    assert _one_line_error(capsys) == f"invalid: {exc.value}\n"


def test_aliases_stay_shared():
    text = "a: &x [1, {b: 2}]\nc: *x\nd: {k: &m {n: [3]}, e: *x}\nm: *m\n"
    for builder, reference in SOURCES:
        doc = yaml.load(text, Loader=builder)
        assert doc == yaml.load(text, Loader=reference)
        assert doc["a"] is doc["c"] is doc["d"]["e"]
        assert doc["d"]["k"] is doc["m"]
        doc = yaml.load("a: &x [1]\nb: *x\n", Loader=builder)
        assert doc["a"] is doc["b"]


def test_recursive_alias_is_built_as_stock_pyyaml():
    for loaders in SOURCES:
        for loader in loaders:
            doc = yaml.load("a: &a [1, *a]\nm: &m {self: *m}\n",
                            Loader=loader)
            assert doc["a"][0] == 1 and doc["a"][1] is doc["a"]
            assert doc["m"]["self"] is doc["m"]


@pytest.mark.parametrize("text, key, line", [
    ("a: 1\nb: 2\na: 3\n", "'a'", 3),
    ("a: {x: 1, x: 2}\n", "'x'", 1),
    ("1: a\n0x1: b\n", "1", 2),
    ("a: [{x: 1}, &b {y: 1,\n    y: 2}]\nc: *b\n", "'y'", 2),
])
def test_duplicate_keys_are_rejected(text, key, line):
    for builder, _ in SOURCES:
        with pytest.raises(yaml.constructor.ConstructorError) as exc:
            yaml.load(text, Loader=builder)
        assert f"found duplicate key {key}" in str(exc.value)
        assert exc.value.problem_mark.line + 1 == line


def test_duplicate_key_in_a_config_is_a_one_line_error(tmp_path, capsys):
    text = (DATA_DIR / "eca.yaml").read_text()
    p = _write(tmp_path / "eca.yaml", text + "  k_t: 1.0\n")
    assert main(["validate", str(p)]) == 1
    err = _one_line_error(capsys)
    line = text.count("\n") + 1
    assert "eca.yaml: YAML parse error: " in err
    assert f"found duplicate key 'k_t' in \"{p}\", line {line}" in err


def test_lift_naming_its_actuator_by_alias_validates(tmp_path, capsys):
    text = (DATA_DIR / "lift_dumbbell.yaml").read_text()
    assert "[eca.yaml, eca.yaml]" in text
    p = _write(tmp_path / "lift.yaml",
               text.replace("[eca.yaml, eca.yaml]", "[&e eca.yaml, *e]"))
    assert main(["validate", str(p)]) == 0
    assert capsys.readouterr().err == ""


def test_merge_key_in_a_config_is_a_one_line_error(tmp_path, capsys):
    text = (DATA_DIR / "eca.yaml").read_text()
    p = _write(tmp_path / "eca.yaml", text.replace(
        "actuator:\n", "actuator:\n  <<: {rated_speed: 110.0}\n"))
    assert main(["validate", str(p)]) == 1
    err = _one_line_error(capsys)
    line = text.split("\n").index("actuator:") + 2
    assert "eca.yaml: YAML parse error: unsupported scalar tagged " in err
    assert f'in "{p}", line {line}' in err


# tagged scalars whose constructor fails with a KeyError, IndexError or
# AttributeError in stock PyYAML
UNBUILDABLE_SCALARS = [("!!bool maybe", KeyError), ('!!bool ""', KeyError),
                       ('!!int ""', IndexError), ("!!int _", IndexError),
                       ('!!int "-"', IndexError), ('!!float ""', IndexError)]


@pytest.mark.parametrize("scalar, stock_error", UNBUILDABLE_SCALARS)
def test_unbuildable_tagged_scalar_is_a_constructor_error(scalar, stock_error):
    text = f"a: 1\nb: {{c: [1, {scalar}]}}\n"
    for builder, reference in SOURCES:
        with pytest.raises(stock_error):
            yaml.load(text, Loader=reference)
        with pytest.raises(yaml.constructor.ConstructorError) as exc:
            yaml.load(text, Loader=builder)
        assert "cannot build" in str(exc.value)
        assert exc.value.problem_mark.line + 1 == 2


@pytest.mark.parametrize("scalar", [s for s, _ in UNBUILDABLE_SCALARS])
def test_unbuildable_tagged_scalar_is_a_one_line_error(tmp_path, capsys,
                                                       scalar):
    p = _write(tmp_path / "a.yaml", ACT_TPL.format(label="x").replace(
        "kind: compression_external", f"kind: {scalar}"))
    assert main(["validate", str(p)]) == 1
    err = _one_line_error(capsys)
    assert "a.yaml: YAML parse error: cannot build " in err
    assert f'in "{p}", line 2' in err


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
def test_loader_lets_memory_errors_and_interrupts_through(tmp_path,
                                                          monkeypatch, error):
    def failing(loader, node):
        raise error
    monkeypatch.setitem(yaml12._Loader.yaml_constructors,
                        "tag:yaml.org,2002:bool", failing)
    p = _write(tmp_path / "a.yaml", "a: !!bool yes\nb: [1\n")
    with pytest.raises(error):
        _read_yaml(p)
    for builder, _ in SOURCES:
        with pytest.raises(error):
            yaml.load(p.read_text(), Loader=builder)


_yaml_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.floats(allow_nan=False), st.text(max_size=8))


@settings(max_examples=150, deadline=None)
@given(st.recursive(_yaml_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(_yaml_scalars, inner, max_size=4)), max_leaves=24))
def test_loaders_read_dumped_documents_as_stock_pyyaml(doc):
    text = yaml.safe_dump(doc)
    for builder, reference in SOURCES:
        assert yaml.load(text, Loader=builder) == yaml.load(
            text, Loader=reference)


# scalars that the builder builds itself (decimal ints and floats) and that
# it hands to SafeConstructor, each in a mapping and in a flow sequence
SCALARS = ["0", "-0", "+7", "017", "0x1F", "1_000", "190:20:30", "-0.0", "1.",
           "+.5", "1e-4", "1E+3", ".inf", "-.Inf", ".nan", "~", "null", "yes",
           "Off", "", "'1.5'", "!!float 1", "!!int 12", "12 ", "1" * 4301]


@pytest.mark.parametrize("scalar", SCALARS, ids=lambda s: s if len(s) < 20
                         else f"int_of_{len(s)}_digits")
def test_scalars_build_as_stock_pyyaml(scalar):
    text = f"a: {scalar}\nb: [{scalar}]\n"
    for builder, reference in SOURCES:
        got, want = _outcome(text, builder), _outcome(text, reference)
        if isinstance(want, tuple):     # an int past 4300 digits
            assert want[0] is ValueError and got == want
            continue
        assert repr(got) == repr(want)
        for value, stock in zip([got["a"], *got["b"]],
                                [want["a"], *want["b"]]):
            assert type(value) is type(stock)
            assert value == stock or value != value != stock


@pytest.mark.parametrize("scalar", ["0", "-0", "+7", "-0.0", "1.", ".5",
                                    "+1.5", "1e-4", "1E+3", "12"])
def test_decimal_ints_and_floats_are_built_without_safeconstructor(
        monkeypatch, scalar):
    def failing(loader, node):
        raise AssertionError(node.value)
    for tag in ("int", "float"):
        monkeypatch.setitem(yaml12._Loader.yaml_constructors,
                            f"tag:yaml.org,2002:{tag}", failing)
    for builder, _ in SOURCES:
        assert yaml.load(f"a: {scalar}\n", Loader=builder)["a"] == float(
            scalar)


def test_huge_int_in_a_config_is_a_one_line_error(tmp_path, capsys):
    p = _write(tmp_path / "a.yaml", "a: " + "1" * 4301 + "\n")
    assert main(["validate", str(p)]) == 1
    assert _one_line_error(capsys).startswith(
        f"invalid: {p}: YAML parse error: Exceeds the limit (4300 digits)")


def _composer_error(text, loader):
    with pytest.raises(yaml.composer.ComposerError) as exc:
        yaml.load(text, Loader=loader)
    e = exc.value
    return (e.context, e.problem, [(m.line, m.column) if m else None
                                   for m in (e.context_mark, e.problem_mark)])


# the composer's errors, which a later build error does not hide
@pytest.mark.parametrize("text", [
    "a: *x\n",
    "a: [1, {b: *y}]\n",
    "a: &x 1\nb: &x [2]\n",
    "a: &x {b: *x, c: &x 1}\n",
    "a: !!bool maybe\nb: *x\n",
    "a: {k: 1, k: 2}\nb: &z 1\nc: [&z 2]\n",
    "a: !!set {x}\n---\nb: 1\n",
    "a: 1\n--- [2]\n",
], ids=["undefined_alias", "nested_undefined_alias", "repeated_anchor",
        "repeated_anchor_inside_it", "undefined_alias_after_a_build_error",
        "repeated_anchor_after_a_build_error",
        "second_document_after_a_build_error", "second_document"])
def test_composer_errors_are_raised_as_stock_pyyaml_raises_them(text):
    # on either parser the text is that of PyYAML's Python composer, which
    # names the anchor, and the marks those of the stock loader
    context, problem, _ = _composer_error(text, SOURCES[0][1])
    for builder, reference in SOURCES:
        assert _composer_error(text, builder) == (
            context, problem, _composer_error(text, reference)[2])


def test_value_that_aliases_nest_deeply_is_a_short_error(tmp_path, capsys):
    # 9 levels of lists, each holding 7 aliases of the one before: 7**8
    # ints, which reprlib's default 6 levels print in about 106 KB
    lists = ["&a0 [1, 1, 1, 1, 1, 1, 1]"] + [
        f"&a{k} [" + ", ".join([f"*a{k - 1}"] * 7) + "]" for k in range(1, 9)]
    p = _write(tmp_path / "chain.yaml", (
        "chain:\n  link_lengths: {b: 0.3, c: 0.25, d: 0.08}\n  rows:\n"
        "    - {joint: t, a: 0, d: 0, alpha_deg: 0, theta_offset_deg: 0,\n"
        "       joint_sign: [" + ", ".join(lists) + "]}\n"))
    assert len(p.read_bytes()) < 500
    assert main(["validate", str(p)]) == 1
    err = _one_line_error(capsys)
    assert len(err.encode()) < 300
    assert err == (f"invalid: {p}: section 'chain.rows[1]': field "
                   f"'joint_sign' must be an integer, got [[1, 1, 1, ...], "
                   f"[[...], [...], [...], ...], [[...], [...], [...], ...], "
                   f"...]\n")


@pytest.mark.parametrize("path, reads", [
    (DATA_DIR / "lift_dumbbell.yaml", ["lift_dumbbell.yaml", "eca.yaml"]),
    (DATA_DIR / "ica_joint.yaml", ["ica_joint.yaml", "ica.yaml"]),
    (DATA_DIR / "exp_lift.yaml",
     ["exp_lift.yaml", "lift_dumbbell.yaml", "eca.yaml"]),
    (BENCH_DATA / "misa_like_joint.yaml",
     ["misa_like_joint.yaml", "misa_like.yaml", "misa_like_curve.csv"]),
])
def test_each_config_file_is_read_once(monkeypatch, path, reads):
    seen = []

    def counting(read):
        def wrapper(p):
            seen.append(p.name)
            return read(p)
        return wrapper

    # every config file and table is read in config
    for name in ("_read_yaml", "_load_table_csv"):
        monkeypatch.setattr(config, name, counting(getattr(config, name)))
    parse_config(path)
    assert seen == reads


def _one_line_error(capsys, prefix="invalid: "):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


def test_invalid_utf8_yaml_is_a_one_line_error(tmp_path, capsys):
    p = tmp_path / "a.yaml"
    p.write_bytes(ACT_TPL.format(label="x").encode().replace(
        b"label: x", b"label: x\xff\xfe"))
    assert main(["validate", str(p)]) == 1
    assert "a.yaml: YAML parse error" in _one_line_error(capsys)


def test_invalid_utf8_table_is_a_one_line_error(tmp_path, capsys):
    curve = (DATA_DIR / "misa_like_curve.csv").read_bytes()
    (tmp_path / "misa_like_curve.csv").write_bytes(curve + b"\xff\xfe,1\n")
    # the bundled actuator names its curve bare, so the copy here wins
    p = _write(tmp_path / "misa.yaml",
               (DATA_DIR / "misa_like.yaml").read_text())
    assert main(["validate", str(p)]) == 1
    assert "misa_like_curve.csv: not UTF-8 text" in _one_line_error(capsys)


@pytest.mark.parametrize("name", ["misa_like.yaml", "misa_like_curve.csv"])
def test_an_unreadable_file_is_a_one_line_error(tmp_path, monkeypatch,
                                                capsys, name):
    # file modes do not bind the superuser, so open itself refuses here
    for copied in ("misa_like.yaml", "misa_like_curve.csv"):
        shutil.copy(DATA_DIR / copied, tmp_path / copied)
    blocked = tmp_path / name
    real = open

    def refusing(file, *args, **kwargs):
        if Path(file) == blocked:
            raise PermissionError(13, "Permission denied", str(file))
        return real(file, *args, **kwargs)

    monkeypatch.setattr(config, "open", refusing, raising=False)
    assert main(["validate", str(tmp_path / "misa_like.yaml")]) == 1
    assert _one_line_error(capsys) == (
        f"invalid: {blocked}: cannot read: [Errno 13] Permission denied: "
        f"'{blocked}'\n")


@pytest.mark.parametrize("text", [b"a: " + b"[" * 50000,
                                  b"- " * 40000 + b"a\n"])
def test_deeply_nested_yaml_is_a_one_line_error(tmp_path, text):
    # in a child process, since the C parser would crash the interpreter
    # on these documents rather than raise
    p = tmp_path / "deep.yaml"
    p.write_bytes(text)
    code = ("import sys; from tendonsim.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, "validate", str(p)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(
                              Path(cli.__file__).parents[1])})
    assert proc.returncode == 1
    assert proc.stderr == (f"invalid: {p}: YAML parse error: nested too "
                           f"deeply\n")


@pytest.mark.parametrize("name, old, new, fragment", [
    # r enters only k_e = k_ts*2*pi*r^2, which must be finite
    ("ica.yaml", "pulley_radius_r: 5.0", "pulley_radius_r: 1e308",
     "section 'actuator': k_e = k_ts*2*pi*r^2 is inf Nmm/rad at k_ts=3.2 "
     "N/mm and pulley_radius_r=1e+308 mm; it must be finite"),
    ("ica.yaml", "pulley_radius_r: 5.0", "pulley_radius_r: .inf",
     "section 'actuator': k_e = k_ts*2*pi*r^2 is inf Nmm/rad at k_ts=3.2 "
     "N/mm and pulley_radius_r=inf mm; it must be finite"),
    ("ica.yaml", "k_t: 30.0", "k_t: 0", "section 'actuator'"),
    # k_e given in place of k_ts: r is checked before k_e/(2*pi*r^2)
    ("ica.yaml", "k_ts: 3.2            # N/mm, tendon-equivalent element "
     "stiffness\n  pulley_radius_r: 5.0", "k_e: 502.65\n  pulley_radius_r: 0",
     "section 'actuator': torsion element requires pulley_radius_r > 0 "
     "(mm)"),
    ("ica.yaml", "k_ts: 3.2            # N/mm, tendon-equivalent element "
     "stiffness\n  pulley_radius_r: 5.0",
     "k_e: 502.65\n  pulley_radius_r: 1e-200",
     "section 'actuator': 2*pi*r^2 underflows to 0 at "
     "pulley_radius_r=1e-200 mm"),
    ("ica.yaml", "k_ts: 3.2 ", "k_ts: 1e308 ",
     "section 'actuator': k_e = k_ts*2*pi*r^2 is inf Nmm/rad at "
     "k_ts=1e+308 N/mm and pulley_radius_r=5.0 mm; it must be finite"),
    # a law travel far from the quoted one prints in a few digits
    ("ica.yaml", "k_ts: 3.2 ", "k_ts: 1e-300 ",
     "is 100% away from the element law's 1.0116e+302 mm at F_tm=112.4 N "
     "(tolerance 2%)"),
    ("ica.yaml", "k_ts: 3.2 ", "k_ts: 1e300 ",
     "is 3.07e+301% away from the element law's 1.0116e-298 mm at "
     "F_tm=112.4 N (tolerance 2%)"),
    ("ica.yaml", "k_t: 30.0", "k_t: 1" + "0" * 400,
     "field 'k_t' is out of range"),
    ("ica.yaml", "label: ica", "label: 2001-13-01", "YAML parse error"),
    ("ica.yaml", "mu_p: 0.1", "mu_p: " + "9" * 5000, "YAML parse error"),
    # an overflowing square, once an errno tuple naming no field
    ("lift_dumbbell.yaml", "payload_distance: 0.25",
     "payload_distance: 1e308",
     "section 'lift': total_inertia is inf kg*m^2 at limb_mass=1.0 kg, "
     "limb_com_distance=0.11 m, payload_mass=2.0 kg and "
     "payload_distance=1e+308 m; it must be finite and > 0"),
    ("lift_dumbbell.yaml", "limb_com_distance: 0.11",
     "limb_com_distance: 1.0e200",
     "section 'lift': total_inertia is inf kg*m^2 at limb_mass=1.0 kg, "
     "limb_com_distance=1e+200 m"),
    ("lift_dumbbell.yaml", "[eca.yaml, eca.yaml]", "[eca.yaml, 7]",
     "'actuators' must be a nonempty list"),
    ("lift_dumbbell.yaml", "dt: 0.0001", "dt: 1e-320",
     f"t_max/dt allows more than {MAX_RUN_POINTS} steps"),
    ("lift_dumbbell.yaml", "dt: 0.0001", "dt: 1e-7",
     f"t_max/dt allows more than {MAX_RUN_POINTS} steps"),
    ("exp_lift.yaml", "config: lift_dumbbell.yaml", "config: ~",
     "field 'config' must be a string, got None"),
    ("exp_workspace.yaml", "n: 100000", f"n: {MAX_RUN_POINTS + 1}",
     f"Workspace needs 1 <= n <= {MAX_RUN_POINTS}"),
    ("exp_workspace.yaml", "n: 100000", "n: 1" + "0" * 400,
     f"Workspace needs 1 <= n <= {MAX_RUN_POINTS}"),
    # 3334 x 3334 points: each axis is small, their product is not
    ("exp_torque_surface.yaml", "step: 2.0}", "step: 0.009}",
     f"the sweep grid has more than {MAX_RUN_POINTS} points"),
    ("exp_force_displacement.yaml", "step: 0.1}", "step: 1e-310}",
     "(stop - start)/step overflows"),
    # a derived travel that overflows to inf
    ("eca.yaml", "k_cs: 10.4 ", "k_cs: 5e-324 ",
     "law's travel at F_tm=252.9 N is inf mm; it must be > 0 and finite"),
    ("misa_like.yaml", "k_t: 60.0", "k_t: 5e-324",
     "d_max_total must be finite, got inf mm"),
    # ints past the float range, read by the typed-field path
    ("arm.yaml", "theta_31: [-40, 65]", "theta_31: [-40, 1" + "0" * 400 + "]",
     "section 'chain.rom_deg': field 'theta_31' is out of range, got 1000"),
    ("arm.yaml", "d: b,", "d: 1" + "0" * 400 + ",",
     "section 'chain.rows[3]': field 'd' is out of range, got 1000"),
    # wrong types, in the form of every typed field
    ("arm.yaml", "theta_21: [0, 138]", "theta_21: [0]",
     "field 'theta_21' must be a [lo, hi] pair of numbers, got [0]"),
    ("arm.yaml", "d: b,", "d: [1],",
     "field 'd' must be a number or a link-length name, got [1]"),
    ("arm.yaml", "  rows:\n", "  rows: 5\n  old_rows:\n",
     "section 'chain': field 'rows' must be a list, got 5"),
    ("lift_dumbbell.yaml", "[eca.yaml, eca.yaml]", "eca.yaml",
     "field 'actuators' must be a nonempty list of actuator config files, "
     "got 'eca.yaml'"),
    ("arm.yaml", "theta_21: [0, 138]", "theta_21: [138, 0]",
     "section 'chain': empty ROM interval for 'theta_21'"),
    ("arm.yaml", "  link_lengths:\n", "  link_lengths: 3\n  old_links:\n",
     "section 'chain.link_lengths' must be a mapping"),
    ("exp_force_displacement.yaml", "  sweep:\n    d:",
     "  sweep: [1]\n  old_sweep:\n    d:",
     "section 'experiment.sweep' must be a mapping"),
])
def test_malformed_configs_are_one_line_errors(tmp_path, capsys, name, old,
                                               new, fragment):
    text = (DATA_DIR / name).read_text()
    assert old in text
    p = _write(tmp_path / name, text.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more lines
        assert main(["validate", str(p)]) == 1
    assert fragment in _one_line_error(capsys)


@pytest.mark.parametrize("name, spec, old, new, fragment", [
    ("eca_joint.yaml", "exp_stiffness_range.yaml", "delta: 0.087",
     "delta: .inf", "section 'joint': field 'delta' must be finite and > 0, "
                    "got inf"),
    ("arm.yaml", "exp_workspace.yaml", "theta_21: [0, 138]",
     "theta_21: [0, 1e400]",
     "section 'chain': ROM interval for 'theta_21' must be finite, got "
     "(0.0, inf)"),
    ("arm.yaml", "exp_workspace.yaml", "theta_21: [0, 138]",
     "theta_21: [.nan, 138]",
     "section 'chain': ROM interval for 'theta_21' must be finite, got "
     "(nan, "),
    # a non-finite D-H field once passed validate; run then sampled the
    # whole workspace before it failed on a NaN cell of the output
    ("arm.yaml", "exp_workspace.yaml", "alpha_deg: 90,  theta_offset_deg: 0,",
     "alpha_deg: .nan,  theta_offset_deg: 0,",
     "section 'chain.rows[1]': alpha must be finite, got nan"),
    ("arm.yaml", "exp_workspace.yaml", "theta_offset_deg: 90,  joint_sign: 1",
     "theta_offset_deg: .inf,  joint_sign: 1",
     "section 'chain.rows[3]': theta_offset must be finite, got inf"),
    ("arm.yaml", "exp_workspace.yaml", "theta_32, a: 0, d: 0,",
     "theta_32, a: .nan, d: 0,",
     "section 'chain.rows[2]': a must be finite, got nan"),
    ("arm.yaml", "exp_workspace.yaml", "theta_32, a: 0, d: 0,",
     "theta_32, a: 0, d: -.inf,",
     "section 'chain.rows[2]': d must be finite, got -inf"),
    ("arm.yaml", "exp_workspace.yaml", "theta_31: [-40, 65]",
     "theta_3l: [-40, 65]",
     "section 'chain': ROM intervals for unknown joints ['theta_3l']; the "
     "joints are theta_31, "),
    ("eca.yaml", "exp_lift.yaml", "rated_force: 250.0", "rated_force: .inf",
     "section 'actuator': rated_force must be finite and positive, got inf"),
    ("eca.yaml", "exp_lift.yaml", "rated_speed: 110.0", "rated_speed: .inf",
     "section 'actuator': rated_speed must be finite and positive, got inf"),
])
def test_config_boundary_rejects_what_a_run_would_misreport(
        tmp_path, capsys, name, spec, old, new, fragment):
    # each of these once passed validate, and run then blamed the model,
    # ran without a cap, or ended in a traceback
    for p in DATA_DIR.iterdir():
        _write(tmp_path / p.name, p.read_text())
    text = (DATA_DIR / name).read_text()
    assert old in text
    _write(tmp_path / name, text.replace(old, new))
    assert main(["validate", str(tmp_path / name)]) == 1
    assert fragment in _one_line_error(capsys)
    out = tmp_path / "o"
    assert main(["run", str(tmp_path / spec), "--out", str(out)]) == 1
    assert fragment in _one_line_error(capsys, "error: ")
    assert not out.exists()


def test_overflowing_force_names_the_sweep_point(tmp_path, capsys):
    # a finite but huge k_t passes validate; past the travel limit the
    # tendon-only force overflows, and the error names the first such d
    # (it once named a row of the output file instead)
    for p in DATA_DIR.iterdir():
        _write(tmp_path / p.name, p.read_text())
    text = (DATA_DIR / "misa_like.yaml").read_text()
    assert "k_t: 60.0" in text
    _write(tmp_path / "misa_like.yaml", text.replace("k_t: 60.0",
                                                     "k_t: 1.0e308"))
    spec = (DATA_DIR / "exp_force_displacement.yaml").read_text()
    _write(tmp_path / "fd.yaml", spec.replace("config: ica.yaml",
                                              "config: misa_like.yaml"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more lines
        assert main(["validate", str(tmp_path / "misa_like.yaml")]) == 0
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["run", str(tmp_path / "fd.yaml"), "--out",
                     str(out)]) == 1
    assert _one_line_error(capsys, "error: ") == (
        "error: force_from_displacement at (25.8): the force at d=25.8 mm "
        "is inf N; it must be finite\n")
    assert list(out.iterdir()) == []
    actuator = parse_config(tmp_path / "misa_like.yaml")
    with pytest.raises(ValueError, match=r"the force at d=25\.8 mm is inf"):
        elastic.force_from_displacement(actuator, [1.0, 25.8, 30.0])


@pytest.mark.parametrize("spec, where", [
    ("exp_stiffness_range.yaml", "StiffnessRange"),
    ("exp_stiffness_vs_pretension.yaml", "joint_stiffness at (0.25)"),
])
def test_overflowing_stiffness_names_delta(tmp_path, capsys, spec, where):
    # a tiny delta passes validate; K_s = F_e*R/delta then overflows, and
    # the error names delta (it once named a cell of the output file)
    for p in DATA_DIR.iterdir():
        _write(tmp_path / p.name, p.read_text())
    for name in ("eca_joint.yaml", "ica_joint.yaml"):
        text = (DATA_DIR / name).read_text()
        assert "delta: 0.087 " in text
        _write(tmp_path / name, text.replace("delta: 0.087 ",
                                             "delta: 5.0e-324 "))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more lines
        assert main(["run", str(tmp_path / spec), "--out", str(out)]) == 1
    assert _one_line_error(capsys, "error: ") == (
        f"error: {where}: K_s = F_e*R/delta overflows at delta=5e-324 rad; "
        f"it must be finite\n")
    assert list(out.iterdir()) == []


def test_overflowing_element_law_warns_nothing_before_its_error(tmp_path):
    # parse_config outside main, which silences numpy: the law overflows
    # while the actuator is built, and only the ConfigError comes out
    text = (DATA_DIR / "eca.yaml").read_text()
    assert "k_cs: 10.4" in text
    p = _write(tmp_path / "eca.yaml", text.replace("k_cs: 10.4",
                                                   "k_cs: 5e-324"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="the element law's travel at "
                                              "F_tm=252.9 N is inf mm"):
            parse_config(p)


def test_chain_rows_with_their_own_joint_names(tmp_path):
    # the default ROM table covers the default joint names only
    arm = (DATA_DIR / "arm.yaml").read_text()
    p = _write(tmp_path / "arm.yaml", re.sub(r"theta_(\d\d)", r"q_\1", arm))
    chain = parse_config(p)
    assert chain.joint_names[0] == "q_31"
    assert set(chain.rom) == set(chain.joint_names)
    rows_only = arm.split("  rom_deg:")[0] + "  rows:" + arm.split("rows:")[1]
    p = _write(tmp_path / "arm.yaml", rows_only.replace("theta_31", "q_31"))
    with pytest.raises(ConfigError, match="no ROM interval for joint 'q_31'"):
        parse_config(p)


def test_null_optional_field_takes_its_default(tmp_path):
    text = (DATA_DIR / "lift_dumbbell.yaml").read_text()
    p = _write(tmp_path / "lift.yaml", text + "  gravity: ~\n")
    assert parse_config(p).gravity == 9.81


def test_reach_that_overflows_the_norm_is_a_one_line_error(tmp_path,
                                                          capsys):
    arm = (DATA_DIR / "arm.yaml").read_text()
    assert "b: 0.30" in arm
    _write(tmp_path / "arm.yaml", arm.replace("b: 0.30", "b: 1e308"))
    spec = _write(tmp_path / "ws.yaml",
                  (DATA_DIR / "exp_workspace.yaml").read_text())
    assert main(["validate", str(tmp_path / "arm.yaml")]) == 1
    assert "too large for the norm" in _one_line_error(capsys)
    assert main(["run", str(spec), "--out", str(tmp_path / "o")]) == 1
    assert "too large for the norm" in _one_line_error(capsys, "error: ")


def test_workspace_seed_must_be_nonnegative(tmp_path, capsys):
    spec = _write(tmp_path / "ws.yaml", WS_SPEC)
    assert main(["run", str(spec), "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 1
    assert "needs a seed >= 0" in _one_line_error(capsys, "error: ")


@pytest.mark.parametrize("spec_seed, seed", [(None, None), (None, -1),
                                             (3, -1), (-2, None)])
def test_workspace_seed_is_checked_before_the_output_directory_is_made(
        tmp_path, capsys, spec_seed, seed):
    text = WS_SPEC + ("" if spec_seed is None else f"  seed: {spec_seed}\n")
    spec = _write(tmp_path / "ws.yaml", text)
    out = tmp_path / "o"
    args = [] if seed is None else ["--seed", str(seed)]
    assert main(["run", str(spec), "--out", str(out), *args]) == 1
    got = spec_seed if seed is None else seed
    # a seed the spec itself gets wrong is the parser's error
    where = (f"{spec}: section 'experiment': "
             if seed is None and spec_seed is not None else "")
    assert _one_line_error(capsys, "error: ") == (
        f"error: {where}Workspace needs a seed >= 0 (spec field or --seed), "
        f"got {got}\n")
    assert not out.exists()


@pytest.mark.parametrize("text, line, verdict", [
    *[pytest.param((DATA_DIR / name).read_text(), f"{key}: {value}",
                   f"section 'experiment': unknown keys ['{key}']",
                   id=f"{name}-{key}")
      for name in ("exp_force_displacement.yaml", "exp_max_torque.yaml",
                   "exp_lift.yaml")
      for key, value in (("n", 1000), ("seed", 3), ("delta", 0.5))],
    pytest.param(WS_SPEC, "seed: -1",
                 "section 'experiment': Workspace needs a seed >= 0 (spec "
                 "field or --seed), got -1", id="workspace-negative-seed"),
    pytest.param((DATA_DIR / "exp_stiffness_vs_pretension.yaml").read_text(),
                 "delta: 0.05", None, id="stiffness-own-delta"),
])
def test_validate_and_run_give_one_verdict(tmp_path, capsys, text, line,
                                           verdict):
    # a kind takes only the optional fields it reads; the rest are unknown
    spec = _write(tmp_path / "spec.yaml", f"{text}  {line}\n")
    out = tmp_path / "o"
    for args, word in ((["validate", str(spec)], "invalid"),
                       (["run", str(spec), "--out", str(out)], "error")):
        if verdict is None:
            assert main(args) == 0
            capsys.readouterr()
        else:
            assert main(args) == 1
            assert _one_line_error(capsys, f"{word}: ") == (
                f"{word}: {spec}: {verdict}\n")
    assert out.exists() == (verdict is None)
    if verdict is None:
        summary = json.loads((out / "ica_stiffness_vs_pretension_summary.json")
                             .read_text())
        assert summary["delta_rad"] == 0.05


@pytest.mark.parametrize("name", sorted(
    p.name for p in DATA_DIR.glob("exp_*.yaml")
    if p.name != "exp_workspace.yaml"))
def test_seed_is_ignored_by_kinds_without_one(tmp_path, capsys, name):
    # the benchmark passes a seed to every bundled spec
    outs = [tmp_path / "plain", tmp_path / "seeded"]
    assert main(["run", str(DATA_DIR / name), "--out", str(outs[0])]) == 0
    assert main(["run", str(DATA_DIR / name), "--out", str(outs[1]),
                 "--seed", "5"]) == 0
    files = [sorted(o.iterdir()) for o in outs]
    assert [p.name for p in files[0]] == [p.name for p in files[1]]
    assert len(files[0]) == 2
    for plain, seeded in zip(*files):
        assert plain.read_bytes() == seeded.read_bytes()


# --------------------------------------------------------------------------
# the benchmark's tracer


def _bench_module(name):
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _PatchLog:
    """Stands in for a module: reads go through, writes are only noted."""

    def __init__(self, module):
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "patched", set())

    def __getattr__(self, name):
        return getattr(self.module, name)

    def __setattr__(self, name, value):
        self.patched.add(name)


def test_names_the_benchmark_tracer_patches_are_cli_callables():
    # the tracer wraps these names in cli's namespace; were a runner to
    # call them from elsewhere, its per-layer spans would read 0
    tracer = _bench_module("tracer")
    log = _PatchLog(cli)
    with tracer.Tracer().installed(log, _PatchLog(joint), _PatchLog(elastic)):
        pass
    assert log.patched >= set(tracer.JOINT_OPS) | {
        "force_from_displacement", "sample_workspace", "simulate_lift",
        "validate_csv_schema"}
    for name in log.patched:
        assert callable(vars(cli).get(name)), name


def test_traced_runs_reach_every_model_layer(tmp_path):
    t = _bench_module("tracer").Tracer()
    specs = [DATA_DIR / "exp_force_displacement.yaml",
             DATA_DIR / "exp_max_torque.yaml",
             _write(tmp_path / "ws.yaml", WS_SPEC),
             DATA_DIR / "exp_lift.yaml"]
    with t.installed(cli, joint, elastic):
        for path in specs:
            run_experiment(parse_experiment(path), out_dir=tmp_path / "o",
                           seed=1)
    assert t.force_calls > 0 and t.joint_calls > 0
    assert t.samples == 200 and t.steps > 0
