"""Config parsing, file resolution, the CSV schema gate and the CLI itself.

Most tests drive main() in-process; file fixtures are written to tmp_path.
Bare config names must fall back to the bundled data directory so every
shipped file doubles as a test vector.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

from tendonsim import cli, elastic, joint
from tendonsim.cli import (DATA_DIR, ENV_CONFIG_DIR, MAX_RUN_POINTS,
                           ConfigError, ExperimentError, GridSpec,
                           LoadedJoint, _PyYamlLoader, _YamlLoader,
                           _merge_exact, _read_yaml, main, parse_config,
                           parse_experiment, run_experiment,
                           validate_csv_schema)

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
    for name in ("ica.yaml", "eca_joint.yaml", "arm.yaml",
                 "lift_dumbbell.yaml", "exp_workspace.yaml"):
        assert main(["validate", "--strict", name]) == 0
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
    parse_config(p)   # lax mode tolerates it
    with pytest.raises(ConfigError, match=r"unknown keys \['typo_key'\]"):
        parse_config(p, strict=True)


def test_table_header_is_mandatory(tmp_path):
    _write(tmp_path / "curve.csv", "d_mm,F_N\n0,0\n1,2\n")
    p = _write(tmp_path / "a.yaml", (
        "actuator:\n  kind: tabulated\n  table: curve.csv\n"
        "  k_t: 40.0\n  rated_force: 120.0\n  rated_speed: 100.0\n"))
    with pytest.raises(ConfigError, match="table header must be exactly"):
        parse_config(p)


def test_joint_requires_identical_actuators(tmp_path):
    _write(tmp_path / "a1.yaml", ACT_TPL.format(label="a1"))
    _write(tmp_path / "a2.yaml",
           ACT_TPL.format(label="a2").replace("k_cs: 10.0", "k_cs: 12.0"))
    p = _write(tmp_path / "j.yaml", (
        "joint:\n  actuator_1: a1.yaml\n  actuator_2: a2.yaml\n"
        "  R: 10.0\n  mu_s: 0.1\n  inertia_I: 0.001\n"))
    with pytest.raises(ConfigError, match="identical"):
        parse_config(p)


def test_joint_label_difference_is_allowed(tmp_path):
    _write(tmp_path / "a1.yaml", ACT_TPL.format(label="left"))
    _write(tmp_path / "a2.yaml", ACT_TPL.format(label="right"))
    p = _write(tmp_path / "j.yaml", (
        "joint:\n  actuator_1: a1.yaml\n  actuator_2: a2.yaml\n"
        "  R: 10.0\n  mu_s: 0.1\n  inertia_I: 0.001\n"))
    loaded = parse_config(p)
    assert isinstance(loaded, LoadedJoint)
    assert loaded.delta == 0.087   # documented default test deflection


@pytest.mark.parametrize("name", ["ica_joint.yaml", "eca_joint.yaml"])
def test_joint_naming_one_file_twice_shares_the_actuator(name):
    joint = parse_config(DATA_DIR / name).joint
    assert joint.actuator_1 is joint.actuator_2


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
    assert loaded.joint.actuator_1.label == "local"


def test_missing_file_lists_candidates(tmp_path):
    from tendonsim.cli import _resolve
    with pytest.raises(ConfigError, match="file not found; tried"):
        _resolve("no_such_config.yaml", tmp_path)


def test_missing_absolute_path(tmp_path):
    from tendonsim.cli import _resolve
    with pytest.raises(ConfigError, match="file not found"):
        _resolve(tmp_path / "absent.yaml", None)


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
    import dataclasses
    bad = dataclasses.replace(spec, model=arm)
    with pytest.raises(ExperimentError, match="needs a actuator config"):
        run_experiment(bad, out_dir=tmp_path)


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
    real = cli._row_blocks

    def failing_blocks(columns, row):
        blocks = real(columns, row)
        yield next(blocks)
        raise fault

    monkeypatch.setattr(cli, "_row_blocks", failing_blocks)
    spec = parse_experiment(DATA_DIR / "exp_lift.yaml")
    out = tmp_path / "o"
    expected = (ExperimentError if isinstance(fault, OSError)
                else KeyboardInterrupt)
    with pytest.raises(expected):
        run_experiment(spec, out_dir=out)
    assert list(out.iterdir()) == []


def test_parse_experiment_accepts_a_str_path(tmp_path):
    spec = parse_experiment(str(_write(tmp_path / "fd.yaml", FD_SPEC)))
    assert spec.source == tmp_path / "fd.yaml"


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
    assert g.points() == [0.0, 0.25, 0.5, 0.75, 1.0]
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
    assert _merge_exact([0.0, 1.0, 2.0], [1.5, 5.0]) == [0.0, 1.0, 1.5, 2.0]


def test_merge_exact_collapses_near_duplicates_onto_exact_value():
    assert _merge_exact([0.0, 1.0 + 2e-10, 2.0], [1.0]) == [0.0, 1.0, 2.0]
    assert _merge_exact([0.0, 1.0 - 2e-10, 2.0], [1.0]) == [0.0, 1.0, 2.0]


def test_merge_exact_with_empty_base():
    assert _merge_exact([], [2.0, 1.0]) == [1.0, 2.0]


# --------------------------------------------------------------------------
# the YAML loader, reading each file once, and malformed input


def test_c_loader_is_used_when_pyyaml_has_libyaml():
    assert issubclass(_PyYamlLoader, yaml.SafeLoader)
    if yaml.__with_libyaml__:
        assert issubclass(_YamlLoader, yaml.CSafeLoader)


def test_c_and_python_loaders_give_equal_documents():
    texts = [p.read_bytes() for p in sorted(DATA_DIR.glob("*.yaml"))
             + sorted(BENCH_DATA.glob("*.yaml"))]
    assert len(texts) == 17
    texts += [t.encode() for t in (ACT_TPL.format(label="x"), FD_SPEC,
                                   WS_SPEC, "a: 1e-4\nb: -2E+3\nc: '1e-4'\n")]
    for text in texts:
        c_doc = yaml.load(text, Loader=_YamlLoader)
        assert c_doc == yaml.load(text, Loader=_PyYamlLoader)
        assert isinstance(c_doc, dict)


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

    for name in ("_read_yaml", "_load_table_csv"):
        monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
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


# --------------------------------------------------------------------------
# the benchmark's tracer


def _bench_tracer():
    path = ROOT / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
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
    tracer = _bench_tracer()
    log = _PatchLog(cli)
    with tracer.Tracer().installed(log, _PatchLog(joint), _PatchLog(elastic)):
        pass
    assert log.patched >= set(tracer.JOINT_OPS) | {
        "force_from_displacement", "sample_workspace", "simulate_lift",
        "validate_csv_schema"}
    for name in log.patched:
        assert callable(vars(cli).get(name)), name


def test_traced_runs_reach_every_model_layer(tmp_path):
    t = _bench_tracer().Tracer()
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
