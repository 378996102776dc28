"""Property-based checks of the model invariants over random parameters.

Each property is stated once, over randomly drawn but law-consistent
actuators and joints; tolerances are relative where the quantities scale
with the drawn parameters.
"""

import ast
import contextlib
import io
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tendonsim import (ActuatorModel, AntagonisticJointConfig,
                       ElasticElementSpec, ElementKind, absolute_max_torque,
                       classify_stage, controllable_stiffness_range,
                       displacement_from_force, external_force,
                       force_from_displacement, forward_kinematics,
                       joint_stiffness, joint_torque,
                       max_allowable_acceleration, max_controllable_torque,
                       mechanical_power, sample_workspace, stage_boundaries)
from tendonsim import cli, config
from tendonsim.cli import DATA_DIR, main
from tendonsim.joint import StageLabel
from tendonsim.kinematics import JOINT_ORDER, default_arm

# drawn parameters stay in a physically plausible band; the law-derived
# travel keeps every drawn element self-consistent by construction
CUBIC_TABLE = tuple((d, 2.0 * d + 0.05 * d ** 3) for d in range(0, 13))


@st.composite
def actuators(draw):
    k_t = draw(st.floats(5.0, 200.0))
    kind = draw(st.sampled_from(("torsion", "compression", "tabulated")))
    if kind == "torsion":
        element = ElasticElementSpec.torsion_internal(
            k_e=draw(st.floats(0.5, 50.0)),
            pulley_radius_r=draw(st.floats(1.0, 20.0)),
            mu_p=draw(st.floats(0.0, 0.3)),
            F_tm=draw(st.floats(10.0, 500.0)))
    elif kind == "compression":
        element = ElasticElementSpec.compression_external(
            k_cs=draw(st.floats(0.5, 100.0)),
            F_tm=draw(st.floats(10.0, 500.0)))
    else:
        element = ElasticElementSpec.tabulated(CUBIC_TABLE)
    return ActuatorModel(element=element, k_t=k_t,
                         rated_force=element.F_tm, rated_speed=100.0)


@st.composite
def joints(draw):
    actuator = draw(actuators())
    return AntagonisticJointConfig(actuator_1=actuator, actuator_2=actuator,
                                   R=draw(st.floats(2.0, 30.0)),
                                   mu_s=draw(st.floats(0.0, 0.3)),
                                   inertia_I=draw(st.floats(1e-4, 1e-2)))


# --------------------------------------------------------------------------
# actuator force map


@settings(max_examples=100, deadline=None)
@given(actuators(), st.floats(-5.0, 2.0), st.floats(-5.0, 2.0))
def test_force_map_is_monotone(actuator, f1, f2):
    lo, hi = sorted((f1, f2))
    d_lo, d_hi = lo * actuator.d_max_total, hi * actuator.d_max_total
    F_lo = force_from_displacement(actuator, d_lo)
    F_hi = force_from_displacement(actuator, d_hi)
    assert F_lo <= F_hi * (1 + 1e-12) + 1e-12
    if 0.0 <= d_lo and d_hi - d_lo > 1e-9 * actuator.d_max_total:
        assert F_lo < F_hi


@settings(max_examples=100, deadline=None)
@given(actuators(), st.floats(0.0, 2.0))
def test_round_trip_force_first(actuator, scale):
    F = scale * actuator.F_tm
    d = displacement_from_force(actuator, F)
    back = force_from_displacement(actuator, d)
    assert back == pytest.approx(F, rel=1e-9, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(actuators(), st.floats(1e-6, 1.5))
def test_round_trip_displacement_first(actuator, scale):
    d = scale * actuator.d_max_total
    F = force_from_displacement(actuator, d)
    back = displacement_from_force(actuator, F)
    assert back == pytest.approx(d, rel=1e-9, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(actuators())
def test_force_map_continuous_at_travel_limit(actuator):
    dmt = actuator.d_max_total
    eps = 1e-9 * max(1.0, dmt)
    below = force_from_displacement(actuator, dmt - eps)
    above = force_from_displacement(actuator, dmt + eps)
    # the steepest branch on either side has slope k_t
    assert abs(above - below) <= 2.0 * actuator.k_t * eps + 1e-9
    assert force_from_displacement(actuator, dmt) == pytest.approx(
        actuator.F_tm, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(actuators(), st.floats(-2.0, 0.0))
def test_slack_region_is_forceless(actuator, scale):
    assert force_from_displacement(actuator, scale * actuator.d_max_total) == 0.0


@settings(max_examples=100, deadline=None)
@given(actuators(), st.data())
def test_scalar_and_array_force_maps_agree_bitwise(actuator, data):
    # probe where the map changes branch: the slack point, the table knots,
    # the travel limit, and out on the tendon-only branch
    dmt = actuator.d_max_total
    anchors = [0.0, dmt]
    if actuator.element.kind is ElementKind.TABULATED:
        anchors += [d + f / actuator.k_t for d, f in actuator.element.table]
    near = st.builds(lambda a, off: a + off, st.sampled_from(anchors),
                     st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9),
                               st.floats(-1.0, 1.0)))
    beyond = st.floats(1.0, 3.0).map(lambda s: s * dmt)
    ds = np.array(data.draw(st.lists(st.one_of(near, beyond), min_size=1,
                                     max_size=40)))

    forces = force_from_displacement(actuator, ds)
    assert forces.shape == ds.shape
    one_by_one = [force_from_displacement(actuator, d) for d in ds.tolist()]
    assert all(type(F) is float for F in one_by_one)
    np.testing.assert_array_equal(forces.view(np.uint64),
                                  np.array(one_by_one).view(np.uint64))

    back = displacement_from_force(actuator, forces)
    assert back.shape == ds.shape
    one_by_one = [displacement_from_force(actuator, F)
                  for F in forces.tolist()]
    assert all(type(d) is float for d in one_by_one)
    np.testing.assert_array_equal(back.view(np.uint64),
                                  np.array(one_by_one).view(np.uint64))


# --------------------------------------------------------------------------
# joint invariants


@settings(max_examples=100, deadline=None)
@given(joints(), st.floats(0.05, 0.45), st.floats(0.0, 1.4))
def test_external_force_nonnegative_and_stiffness_positive(joint, frac, pos):
    delta = frac * joint.d_m / joint.R
    d_s = pos * joint.d_m
    assert external_force(joint, delta, d_s) >= 0.0
    assert joint_stiffness(joint, delta, d_s) > 0.0


@settings(max_examples=100, deadline=None)
@given(joints(), st.floats(0.05, 2.0),
       st.lists(st.floats(0.0, 3.5), min_size=1, max_size=20))
def test_classification_matches_interval_arithmetic(joint, frac, positions):
    # delta*R past d_m/2 (frac > 0.5) puts the boundaries out of order and
    # past d_m (frac > 1) makes d_m - delta*R negative; the boundaries
    # themselves are ties, which go to the lower stage
    delta = frac * joint.d_m / joint.R
    bounds = stage_boundaries(joint, delta)
    d_s = [pos * joint.d_m for pos in positions] + [b for b in bounds
                                                     if b >= 0]
    labels = classify_stage(joint, np.array(d_s), delta)
    assert labels.shape == (len(d_s),)
    b1, b2, b3, b4 = bounds
    for v, label in zip(d_s, labels):
        if v <= b1:
            expected = StageLabel.S1_OPPOSING_SLACK
        elif v <= b2:
            expected = StageLabel.S2_CONTROLLABLE
        elif v <= b3:
            expected = StageLabel.S3_DRIVING_AT_LIMIT
        elif v <= b4:
            expected = StageLabel.S4_PRETENSION_PAST_LIMIT
        else:
            expected = StageLabel.S5_TENDON_ONLY
        assert classify_stage(joint, v, delta) is expected
        assert label is expected


@settings(max_examples=100, deadline=None)
@given(joints(), st.floats(0.05, 0.45))
def test_stiffness_range_endpoints_are_reachable(joint, frac):
    delta = frac * joint.d_m / joint.R
    rng = controllable_stiffness_range(joint, delta)
    assert rng.K_smin == joint_stiffness(joint, delta, delta * joint.R)
    assert rng.K_smax == joint_stiffness(joint, delta, joint.d_m / 2.0)
    assert rng.delta_K == rng.K_smax - rng.K_smin
    # the flat (frictionless linear) case may invert by one ulp
    assert rng.K_smax >= rng.K_smin * (1.0 - 1e-12)
    assert rng.K_smin > 0.0
    # pre-tension only buys stiffness through sheath friction or element
    # nonlinearity; a frictionless linear pair has a flat controllable stage
    tabulated = joint.actuator_1.element.kind is ElementKind.TABULATED
    if joint.mu_s >= 1e-6 or tabulated:
        assert rng.K_smax > rng.K_smin
    elif joint.mu_s == 0.0 and not tabulated:
        assert rng.K_smax == pytest.approx(rng.K_smin, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(joints(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_torque_nonnegative_and_zero_at_rest(joint, pos, tfrac):
    d_s = pos * joint.d_m
    d_t = tfrac * joint.d_m
    assert joint_torque(joint, d_s, d_t) >= 0.0
    assert joint_torque(joint, d_s, 0.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(joints(), st.floats(0.0, 1.0))
def test_torque_ceiling_bounded_by_absolute_max(joint, pos):
    d_s = pos * joint.d_m
    tau = max_controllable_torque(joint, d_s)
    assert tau <= absolute_max_torque(joint) * (1 + 1e-12)
    assert max_controllable_torque(joint, 0.0) == pytest.approx(
        absolute_max_torque(joint), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(joints(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_acceleration_bound_grows_with_pretension(joint, p1, p2):
    lo, hi = sorted((p1 * joint.d_m, p2 * joint.d_m))
    a_lo = max_allowable_acceleration(joint, lo)
    a_hi = max_allowable_acceleration(joint, hi)
    assert a_lo <= a_hi * (1 + 1e-12)
    if hi - lo > 1e-9 * joint.d_m:
        assert a_lo < a_hi


# --------------------------------------------------------------------------
# kinematics and power


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7))
def test_rotation_orthonormal_and_reach_bounded(fracs):
    arm = default_arm()
    q = {}
    for name, frac in zip(JOINT_ORDER, fracs):
        lo, hi = arm.rom[name]
        q[name] = min(max(lo + frac * (hi - lo), lo), hi)
    fk = forward_kinematics(arm, q)
    np.testing.assert_allclose(fk.rotation.T @ fk.rotation, np.eye(3),
                               atol=1e-12)
    assert np.linalg.det(fk.rotation) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(fk.position) <= arm.reach_limit + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_workspace_depends_only_on_seed(seed):
    arm = default_arm()
    a = sample_workspace(arm, 16, seed)
    b = sample_workspace(arm, 16, seed)
    np.testing.assert_array_equal(a.points, b.points)


@settings(max_examples=100, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(-1e3, 1e3))
def test_power_is_the_exact_product(tau, omega):
    assert mechanical_power(tau, omega) == tau * omega


BUNDLED_YAML = sorted(p.name for p in DATA_DIR.glob("*.yaml"))
# bytes that steer YAML and number syntax, besides any byte at all
SYNTAX_BYTES = b"0123456789.-+eE:[]{},#&*!|>'\"?%@ \t\n~"


@st.composite
def byte_edits(draw):
    """(position, byte or None) pairs: None deletes, a byte overwrites or,
    with the flag, inserts."""
    byte = st.one_of(st.sampled_from(list(SYNTAX_BYTES)), st.integers(0, 255))
    return draw(st.lists(st.tuples(st.integers(0, 10 ** 6),
                                   st.one_of(st.none(), byte), st.booleans()),
                         min_size=1, max_size=4))


def _mutate(path, edits):
    data = bytearray(path.read_bytes())
    for pos, byte, insert in edits:
        pos %= len(data) + 1
        if byte is None:
            del data[pos:pos + 1]
        elif insert or pos == len(data):
            data[pos:pos] = bytes([byte])
        else:
            data[pos] = byte
    path.write_bytes(bytes(data))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BUNDLED_YAML + ["misa_like_curve.csv"]), byte_edits())
def test_mutated_bundled_configs_end_in_ok_or_one_line_error(target, edits):
    validated = target if target.endswith(".yaml") else "misa_like.yaml"
    with tempfile.TemporaryDirectory() as tmp:
        # bare names resolve against the referencing file's directory first
        for p in DATA_DIR.iterdir():
            shutil.copy(p, tmp)
        _mutate(Path(tmp) / target, edits)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["validate", str(Path(tmp) / validated)])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("invalid: ")
        assert err.getvalue().count("\n") == 1


# each spec the run fuzz starts from, with the files its run reads
RUN_INPUTS = {
    "exp_force_displacement.yaml": ("ica.yaml",),
    "exp_stiffness_vs_pretension.yaml": ("ica_joint.yaml", "ica.yaml"),
    "exp_max_acceleration.yaml": ("ica_joint.yaml", "ica.yaml"),
    "exp_torque_surface.yaml": ("ica_joint.yaml", "ica.yaml"),
    "exp_max_torque.yaml": ("ica_joint.yaml", "ica.yaml"),
    "exp_stiffness_range.yaml": ("eca_joint.yaml", "eca.yaml"),
    "exp_workspace.yaml": ("arm.yaml",),
    "exp_lift.yaml": ("lift_dumbbell.yaml", "eca.yaml"),
    "exp_tabulated_surface.yaml": ("misa_like_joint.yaml", "misa_like.yaml",
                                   "misa_like_curve.csv"),
}
BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"
# the run bound while fuzzing, and the two bundled runs it would refuse
# shrunk to fit under it, so that no example allocates much
RUN_POINTS = 20_000
SHRUNK = {"exp_workspace.yaml": ("n: 100000", "n: 2000"),
          # with an explicit gravity, for the number mutations to reach
          "lift_dumbbell.yaml": ("t_max: 5.0",
                                 "t_max: 1.0\n  gravity: 9.81")}


# a number of a file, and what the number mutations put in its place
NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]*)?(?:[eE][-+]?[0-9]+)?")
LITERALS = [b"0", b"-1", b"1e-7", b"1e308", b"5e-324", b".inf", b"-.inf",
            b".nan", b"1" + b"0" * 400, b"~", b"x", b"[1]", b"{}"]


@st.composite
def number_edits(draw):
    """(k, literal) pairs: the k-th number of a file, counted modulo their
    number, becomes literal."""
    return draw(st.lists(st.tuples(st.integers(0, 10 ** 3),
                                   st.sampled_from(LITERALS)),
                         min_size=1, max_size=3))


def _replace_numbers(path, edits):
    data = path.read_bytes()
    spans = [m.span() for m in NUMBER.finditer(data)]
    chosen = {spans[k % len(spans)]: lit for k, lit in edits} if spans else {}
    for (start, stop), lit in sorted(chosen.items(), reverse=True):
        data = data[:start] + lit + data[stop:]
    path.write_bytes(data)


@st.composite
def run_inputs(draw):
    """A spec, and the file of its run to mutate."""
    spec = draw(st.sampled_from(sorted(RUN_INPUTS)))
    return spec, draw(st.sampled_from((spec,) + RUN_INPUTS[spec]))


@settings(max_examples=150, deadline=None)
@given(run_inputs(), st.one_of(byte_edits().map(lambda e: (_mutate, e)),
                              number_edits().map(
                                  lambda e: (_replace_numbers, e))))
def test_mutated_bundled_runs_end_in_clean_files_or_one_line_error(
        inputs, mutation):
    spec, target = inputs
    mutate, edits = mutation
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more lines
        mp.setattr(config, "MAX_RUN_POINTS", RUN_POINTS)
        tmp = Path(tmp)
        for p in [*DATA_DIR.iterdir(), *BENCH_DATA.iterdir()]:
            shutil.copy(p, tmp)
        for name, (old, new) in SHRUNK.items():
            text = (tmp / name).read_text()
            assert old in text
            (tmp / name).write_text(text.replace(old, new))
        mutate(tmp / target, edits)
        out = tmp / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["run", str(tmp / spec), "--out", str(out)])
        written = sorted(out.iterdir()) if out.exists() else []
        if code == 1:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
            assert written == []
        else:
            assert code == 0 and err.getvalue() == ""
            assert len(written) == 2
            for path in written:
                if path.suffix == ".csv":
                    cli.validate_csv_schema(path)


def test_the_suite_reports_a_falsifying_example(tmp_path):
    # pytest here turns every warning into an error, but not the one the
    # hypothesis plugin raises while it reports a failed example: that
    # would end the session in an INTERNALERROR and hide the example
    test = tmp_path / "test_fails.py"
    test.write_text("from hypothesis import given, strategies as st\n\n\n"
                    "@given(st.integers())\n"
                    "def test_fails(x):\n"
                    "    assert x < 10\n")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                          "no:cacheprovider", "-c", str(pyproject),
                          str(test)],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout


def test_no_module_level_name_is_defined_twice():
    # a second def or class of one name replaces the first, so pytest
    # never collects a test that a later one of the same name shadows
    root = Path(__file__).resolve().parents[1]
    twice = []
    for path in sorted([*root.glob("tests/*.py"),
                        *root.glob("src/tendonsim/*.py")]):
        seen = set()
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name in seen:
                    twice.append(f"{path.name}:{node.lineno}: {node.name}")
                seen.add(node.name)
    assert twice == []


# Without cached bytecode each module is compiled whole when it is first
# imported, and that compile is the largest allocation of a fresh process:
# compiling a 64 KB cli.py set the peak RSS of a small `tendonsim run`.
MAX_MODULE_BYTES = 25_000


def test_no_module_exceeds_the_source_size_limit():
    root = Path(__file__).resolve().parents[1]
    sizes = {path.name: path.stat().st_size
             for path in root.glob("src/tendonsim/*.py")}
    assert "cli.py" in sizes
    assert {n: b for n, b in sizes.items() if b > MAX_MODULE_BYTES} == {}
