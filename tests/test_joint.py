"""Antagonistic pair: stage algebra, stiffness, acceleration and torque.

The restoring-force computation has a single code path; these tests pin it
against per-stage closed forms recomputed independently here (from the raw
constants, not through the package), and against frozen reference numbers
for the bench parameter sets.
"""

import numpy as np
import pytest

from tendonsim import (ActuatorModel, AntagonisticJointConfig,
                       ElasticElementSpec, StageLabel,
                       absolute_max_torque, classify_stage,
                       controllable_stiffness_range, external_force,
                       joint_stiffness, joint_torque,
                       max_allowable_acceleration, max_controllable_torque,
                       pretension_force, stage_boundaries)

# bench parameter sets (same as test_elastic)
T_KTS, T_R, T_MUP, T_KT, T_FTM = 3.236, 5.0, 0.1, 30.0, 112.4
C_KCS, C_KT, C_FTM = 10.44, 60.0, 252.9
R, MU_S, INERTIA = 10.0, 0.1, 0.001
DELTA = 0.087


def torsion_pair(mu_s=MU_S):
    el = ElasticElementSpec.torsion_internal(
        k_ts=T_KTS, pulley_radius_r=T_R, mu_p=T_MUP, F_tm=T_FTM)
    a = ActuatorModel(element=el, k_t=T_KT, rated_force=125.0,
                      rated_speed=220.0)
    return AntagonisticJointConfig(actuator_1=a, actuator_2=a, R=R,
                                   mu_s=mu_s, inertia_I=INERTIA)


def compression_pair(mu_s=MU_S):
    el = ElasticElementSpec.compression_external(k_cs=C_KCS, F_tm=C_FTM)
    a = ActuatorModel(element=el, k_t=C_KT, rated_force=250.0,
                      rated_speed=110.0)
    return AntagonisticJointConfig(actuator_1=a, actuator_2=a, R=R,
                                   mu_s=mu_s, inertia_I=INERTIA)


def _oracle_map(k, mu_p, k_t, F_tm):
    """Piecewise force map rebuilt from the raw constants only."""
    k_et = k * k_t / (k_t * (1.0 - mu_p) + k)
    d_m = F_tm * (1.0 - mu_p) / k + F_tm / k_t

    def fd(d):
        if d <= 0.0:
            return 0.0
        if d >= d_m:
            return F_tm + (d - d_m) * k_t
        return k_et * d

    return k_et, d_m, fd


TORSION_ORACLE = _oracle_map(T_KTS, T_MUP, T_KT, T_FTM)
COMPRESSION_ORACLE = _oracle_map(C_KCS, 0.0, C_KT, C_FTM)


# --------------------------------------------------------------------------
# configuration


def test_pair_must_match():
    el = ElasticElementSpec.torsion_internal(
        k_ts=T_KTS, pulley_radius_r=T_R, mu_p=T_MUP, F_tm=T_FTM)
    a = ActuatorModel(element=el, k_t=T_KT, rated_force=125.0,
                      rated_speed=220.0)
    b = ActuatorModel(element=el, k_t=T_KT + 1.0, rated_force=125.0,
                      rated_speed=220.0)
    with pytest.raises(ValueError, match="identical"):
        AntagonisticJointConfig(actuator_1=a, actuator_2=b, R=R, mu_s=MU_S,
                                inertia_I=INERTIA)
    # labels are names, not parameters
    c = ActuatorModel(element=el, k_t=T_KT, rated_force=125.0,
                      rated_speed=220.0, label="other-name")
    AntagonisticJointConfig(actuator_1=a, actuator_2=c, R=R, mu_s=MU_S,
                            inertia_I=INERTIA)


@pytest.mark.parametrize("field,value", [
    ("R", 0.0), ("R", -1.0), ("mu_s", -0.1), ("mu_s", 1.0),
    ("inertia_I", 0.0),
])
def test_joint_rejects_bad_parameters(field, value):
    el = ElasticElementSpec.torsion_internal(
        k_ts=T_KTS, pulley_radius_r=T_R, mu_p=T_MUP, F_tm=T_FTM)
    a = ActuatorModel(element=el, k_t=T_KT, rated_force=125.0,
                      rated_speed=220.0)
    kwargs = dict(actuator_1=a, actuator_2=a, R=R, mu_s=MU_S,
                  inertia_I=INERTIA)
    kwargs[field] = value
    with pytest.raises(ValueError):
        AntagonisticJointConfig(**kwargs)


def test_pretension_force():
    j = torsion_pair()
    assert pretension_force(j, 5.0) == pytest.approx(16.053710808307976,
                                                     rel=1e-12)
    assert pretension_force(j, 0.0) == 0.0
    with pytest.raises(ValueError):
        pretension_force(j, -1.0)


# --------------------------------------------------------------------------
# stages


def test_stage_boundaries_and_classification():
    j = compression_pair()
    b1, b2, b3, b4 = stage_boundaries(j, DELTA)
    d_m = j.d_m
    assert b1 == pytest.approx(DELTA * R, rel=1e-12)
    assert b2 == pytest.approx(d_m - DELTA * R, rel=1e-12)
    assert b3 == pytest.approx(d_m, rel=1e-12)
    assert b4 == pytest.approx(d_m + DELTA * R, rel=1e-12)

    expected = [
        (0.0, StageLabel.S1_OPPOSING_SLACK),
        (b1, StageLabel.S1_OPPOSING_SLACK),          # ties go down
        (b1 + 1e-9, StageLabel.S2_CONTROLLABLE),
        (0.5 * d_m, StageLabel.S2_CONTROLLABLE),
        (b2, StageLabel.S2_CONTROLLABLE),
        (b2 + 1e-9, StageLabel.S3_DRIVING_AT_LIMIT),
        (b3, StageLabel.S3_DRIVING_AT_LIMIT),
        (b3 + 1e-9, StageLabel.S4_PRETENSION_PAST_LIMIT),
        (b4, StageLabel.S4_PRETENSION_PAST_LIMIT),
        (b4 + 1e-9, StageLabel.S5_TENDON_ONLY),
        (100.0, StageLabel.S5_TENDON_ONLY),
    ]
    for d_s, label in expected:
        assert classify_stage(j, d_s, DELTA) is label, d_s


def test_stage_labels_are_stable_strings():
    values = [s.value for s in StageLabel]
    assert values == ["S1_OpposingSlack", "S2_Controllable",
                      "S3_DrivingAtLimit", "S4_PretensionPastLimit",
                      "S5_TendonOnly"]


# --------------------------------------------------------------------------
# restoring force: one code path vs per-stage closed forms


def test_external_force_frozen_values():
    j = torsion_pair()
    assert external_force(j, DELTA, 10.0) == pytest.approx(
        8.797433522952762, rel=1e-12)
    assert external_force(j, DELTA, 0.0) == pytest.approx(
        2.7933456806455883, rel=1e-12)
    c = compression_pair()
    assert external_force(c, DELTA, 40.0) == pytest.approx(
        199.05517241379312, rel=1e-12)


@pytest.mark.parametrize("make_pair,oracle", [
    (torsion_pair, TORSION_ORACLE),
    (compression_pair, COMPRESSION_ORACLE),
], ids=["torsion", "compression"])
def test_stage_closed_forms_match_single_path(make_pair, oracle):
    j = make_pair()
    k_et, d_m, fd = oracle
    k_t = T_KT if make_pair is torsion_pair else C_KT
    dR = DELTA * R
    rng = np.random.default_rng(11)
    cases = [
        # S1: opposing side slack
        (rng.uniform(0.0, dR, 300),
         lambda d_s: k_et * dR + (1.0 + MU_S) * fd(d_s)),
        # S2: both elements inside travel
        (rng.uniform(dR * (1 + 1e-9), d_m - dR, 400),
         lambda d_s: 2.0 * k_et * dR + MU_S * fd(d_s)),
        # S5: both sides on tendon-only stretch
        (rng.uniform(d_m + dR * (1 + 1e-9), 2.0 * d_m, 300),
         lambda d_s: 2.0 * dR * k_t + MU_S * fd(d_s)),
    ]
    for d_values, closed_form in cases:
        for d_s in d_values:
            assert external_force(j, DELTA, float(d_s)) == pytest.approx(
                closed_form(float(d_s)), rel=1e-9), d_s


def test_external_force_validation():
    j = torsion_pair()
    with pytest.raises(ValueError):
        external_force(j, 0.0, 5.0)
    with pytest.raises(ValueError):
        external_force(j, DELTA, -1.0)


# --------------------------------------------------------------------------
# stiffness


def test_joint_stiffness_frozen_values():
    j = torsion_pair()
    assert joint_stiffness(j, DELTA, 0.87) == pytest.approx(
        674.2558539489352, rel=1e-12)
    assert joint_stiffness(j, DELTA, 0.0) == pytest.approx(
        321.0742161661596, rel=1e-12)


def test_controllable_stiffness_range_reference_pairs():
    j = torsion_pair()
    rng_t = controllable_stiffness_range(j, DELTA)
    assert rng_t.K_smin == pytest.approx(674.2558539489352, rel=1e-12)
    assert rng_t.K_smax == pytest.approx(1288.1254438265723, rel=1e-12)
    assert rng_t.delta_K == pytest.approx(rng_t.K_smax - rng_t.K_smin,
                                          rel=1e-12)
    # quoted figures for this parameter set: 0.67 / 1.28 / 0.61 Nm/rad
    assert rng_t.K_smin / 1e3 == pytest.approx(0.67, abs=0.01)
    assert rng_t.K_smax / 1e3 == pytest.approx(1.28, abs=0.01)
    assert rng_t.delta_K / 1e3 == pytest.approx(0.61, abs=0.01)

    c = compression_pair()
    rng_c = controllable_stiffness_range(c, DELTA)
    assert rng_c.K_smin == pytest.approx(1867.4616695059624, rel=1e-12)
    assert rng_c.K_smax == pytest.approx(3231.983199201081, rel=1e-12)


def test_range_endpoints_sit_on_the_stiffness_curve():
    j = compression_pair()
    rng = controllable_stiffness_range(j, DELTA)
    assert rng.K_smin == joint_stiffness(j, DELTA, DELTA * R)
    assert rng.K_smax == joint_stiffness(j, DELTA, j.d_m / 2.0)


def test_oversized_delta_has_no_controllable_stage():
    j = torsion_pair()
    too_big = j.d_m / (2.0 * R)
    with pytest.raises(ValueError, match="controllable stage is empty"):
        controllable_stiffness_range(j, too_big)


def test_stiffness_grows_with_pretension_in_s2():
    j = compression_pair()
    b1, b2, _, _ = stage_boundaries(j, DELTA)
    grid = np.linspace(b1 * 1.01, b2 * 0.999, 50)
    ks = [joint_stiffness(j, DELTA, float(d)) for d in grid]
    assert all(k2 > k1 for k1, k2 in zip(ks, ks[1:]))


# --------------------------------------------------------------------------
# acceleration bound


def test_max_acceleration_frozen_value():
    j = torsion_pair()
    k_et, _, _ = TORSION_ORACLE
    acc = max_allowable_acceleration(j, 5.0)
    # F_e at the slack limit: f(2 d_s) + mu_s*f(d_s) = k_et*d_s*(2 + mu_s)
    F_e = k_et * 5.0 * (2.0 + MU_S)
    assert acc == pytest.approx(F_e * (R / 1000.0) / INERTIA, rel=1e-12)
    assert acc == pytest.approx(337.1279269744675, rel=1e-12)


def test_max_acceleration_domain():
    j = torsion_pair()
    assert max_allowable_acceleration(j, 0.0) == 0.0
    # d_s/R underflows to 0 for a subnormal d_s: no room to rotate either
    assert max_allowable_acceleration(j, 5e-324) == 0.0
    with pytest.raises(ValueError):
        max_allowable_acceleration(j, -0.1)
    with pytest.raises(ValueError, match="past the elastic stage"):
        max_allowable_acceleration(j, j.d_m * 1.01)


def test_max_acceleration_kink_sits_at_half_travel():
    j = torsion_pair()
    mid = j.d_m / 2.0
    h = 0.25

    def slope(x):
        return (max_allowable_acceleration(j, x + h)
                - max_allowable_acceleration(j, x)) / h

    below, above = slope(mid - 2 * h), slope(mid + h)
    assert above / below > 2.0
    # away from the kink the curve is straight on both sides
    assert slope(mid / 2) == pytest.approx(below, rel=1e-9)
    assert slope((mid + j.d_m * 0.98) / 2) == pytest.approx(above, rel=1e-9)


# --------------------------------------------------------------------------
# torque


def test_joint_torque_frozen_value():
    j = torsion_pair()
    _, _, fd = TORSION_ORACLE
    tau = joint_torque(j, 5.0, 10.0)
    oracle = (fd(15.0) - fd(-5.0) - MU_S * fd(5.0)) * R
    assert tau == pytest.approx(oracle, rel=1e-12)
    assert tau == pytest.approx(465.55761344093133, rel=1e-12)


def test_torque_friction_clamp():
    j = torsion_pair()
    # zero displacement: friction alone would be negative, clamps to 0
    assert joint_torque(j, 10.0, 0.0) == 0.0
    assert joint_torque(j, 10.0, 1e-6) >= 0.0


def test_max_controllable_torque_ceiling():
    # with no joint friction the ceiling stays at R*F_tm while the opposing
    # side is slack at full swing, i.e. up to d_m/2
    j0 = compression_pair(mu_s=0.0)
    tau0 = max_controllable_torque(j0, 0.0)
    assert tau0 == pytest.approx(absolute_max_torque(j0), rel=1e-12)
    assert max_controllable_torque(j0, j0.d_m / 4.0) == pytest.approx(
        tau0, rel=1e-12)
    assert max_controllable_torque(j0, 0.75 * j0.d_m) < tau0

    # friction makes it fall from the first millimeter of pre-tension
    j = compression_pair()
    assert max_controllable_torque(j, 0.0) == pytest.approx(
        absolute_max_torque(j), rel=1e-12)
    assert max_controllable_torque(j, 1.0) < max_controllable_torque(j, 0.0)
    with pytest.raises(ValueError, match="past the elastic stage"):
        max_controllable_torque(j, j.d_m + 0.1)


def test_max_controllable_torque_frozen_value(eca_pair):
    # table-quoted pair: d_t driven to the limit from d_s = 6.48 mm
    assert max_controllable_torque(eca_pair.joint, 6.48) == pytest.approx(
        2471.5636363636363, rel=1e-12)


def test_absolute_max_torque_reference(ica_pair):
    assert absolute_max_torque(ica_pair.joint) == pytest.approx(
        R * 112.4, rel=1e-12)


# --------------------------------------------------------------------------
# whole grids


def test_joint_operations_take_whole_grids(misa):
    tabulated = AntagonisticJointConfig(actuator_1=misa, actuator_2=misa,
                                        R=R, mu_s=MU_S, inertia_I=INERTIA)
    for j in (torsion_pair(), compression_pair(), tabulated):
        ds = np.linspace(0.0, 1.3 * j.d_m, 11)
        dt = np.linspace(0.0, j.d_m, 7)
        DS, DT = np.meshgrid(ds, dt, indexing="ij")
        grid = joint_torque(j, DS, DT)
        assert grid.shape == DS.shape
        assert grid.tolist() == [[joint_torque(j, a, b) for b in dt.tolist()]
                                 for a in ds.tolist()]
        for op, args in ((pretension_force, ()),
                         (external_force, (DELTA,)),
                         (joint_stiffness, (DELTA,))):
            assert op(j, *args, ds).tolist() == [op(j, *args, d)
                                                 for d in ds.tolist()]
        inside = ds[ds <= j.d_m]
        assert max_controllable_torque(j, inside).tolist() == [
            max_controllable_torque(j, d) for d in inside.tolist()]
        # the deflection is an array too: d_s/R differs at every point
        inside = np.append(inside, 5e-324)
        assert max_allowable_acceleration(j, inside).tolist() == [
            max_allowable_acceleration(j, d) for d in inside.tolist()]
        deltas = np.linspace(0.01, 0.2, ds.size)
        assert external_force(j, deltas, ds).tolist() == [
            external_force(j, a, b)
            for a, b in zip(deltas.tolist(), ds.tolist())]


def test_grid_arguments_name_the_first_bad_entry():
    j = torsion_pair()
    with pytest.raises(ValueError, match=r"d_t must be >= 0, got -2\.0$"):
        joint_torque(j, np.ones(3), np.array([0.0, -2.0, -3.0]))
    with pytest.raises(ValueError, match="d_s=50.0 mm is past the elastic"):
        max_controllable_torque(j, np.array([1.0, 50.0, 60.0]))
    with pytest.raises(ValueError, match="d_s=50.0 mm is past the elastic"):
        max_allowable_acceleration(j, np.array([1.0, 50.0, 60.0]))
    with pytest.raises(ValueError, match=r"d_s must be >= 0, got -2\.0$"):
        max_allowable_acceleration(j, np.array([1.0, -2.0, -3.0]))
    with pytest.raises(ValueError, match=r"delta must be > 0, got 0\.0$"):
        external_force(j, np.array([0.1, 0.0, -1.0]), 1.0)
