"""Config parsing, file resolution, the CSV schema gate and the CLI itself.

Most tests drive main() in-process; file fixtures are written to tmp_path.
Bare config names must fall back to the bundled data directory so every
shipped file doubles as a test vector.
"""

import json

import pytest
import yaml

from tendonsim.cli import (DATA_DIR, ENV_CONFIG_DIR, ConfigError,
                           ExperimentError, GridSpec, LoadedJoint,
                           _merge_exact, _read_yaml, main, parse_config,
                           parse_experiment, run_experiment,
                           validate_csv_schema)

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
    with pytest.raises(ConfigError, match="delta must be > 0"):
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


def test_run_rejects_wrong_config_type(tmp_path):
    spec = parse_experiment(_write(tmp_path / "fd.yaml", FD_SPEC))
    arm = parse_config(DATA_DIR / "arm.yaml")
    import dataclasses
    bad = dataclasses.replace(spec, model=arm)
    with pytest.raises(ExperimentError, match="needs a actuator config"):
        run_experiment(bad, out_dir=tmp_path)


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
    assert GridSpec(0.0, 1.0, 0.25).points() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_grid_appends_stop_when_step_does_not_divide():
    pts = GridSpec(0.0, 1.0, 0.3).points()
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert len(pts) == 5


def test_grid_handles_float_noise():
    pts = GridSpec(0.0, 35.0, 0.25).points()
    assert len(pts) == 141
    assert pts[-1] == 35.0


@pytest.mark.parametrize("kw", [
    dict(start=0.0, stop=1.0, step=0.0),
    dict(start=0.0, stop=1.0, step=-0.5),
    dict(start=2.0, stop=1.0, step=0.5),
    dict(start=float("nan"), stop=1.0, step=0.5),
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
