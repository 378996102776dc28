"""Acceptance criteria for the bundled reference models, one test each.

Every test states its tolerance inline and checks the shipped configs
(ica/eca/misa_like actuators, their joint pairs, the 7-joint arm, the
dumbbell lift and the 8 bundled experiment specs). The conftest hook
prints one PASS/FAIL line per criterion at the end of the run.

Oracle constants are rebuilt here from the raw figures in the config files
(spring rates, friction factors, limits), never read back from the package,
so a regression in the derivation chain cannot hide itself.
"""

import filecmp
import math

import numpy as np
import pytest

from tendonsim import (ActuatorModel, ElasticElementSpec,
                       absolute_max_torque, controllable_stiffness_range,
                       displacement_from_force, external_force,
                       force_from_displacement, forward_kinematics,
                       full_extension_joint_values, joint_stiffness,
                       max_allowable_acceleration, max_controllable_torque,
                       simulate_lift, stage_boundaries)
from tendonsim.cli import (DATA_DIR, parse_experiment, run_experiment,
                           validate_csv_schema)
from tendonsim.kinematics import JOINT_ORDER

# raw figures of the two spring prototypes, as configured
ICA_KTS, ICA_MUP, ICA_KT, ICA_FTM = 3.2, 0.1, 30.0, 112.4
ECA_KCS, ECA_KT, ECA_FTM = 10.4, 60.0, 252.9
R_J, MU_S, DELTA = 10.0, 0.1, 0.087

# series (tendon-equivalent) stiffness and total travel, from the raw figures
ICA_KET = ICA_KTS * ICA_KT / (ICA_KT * (1.0 - ICA_MUP) + ICA_KTS)
ICA_DM = ICA_FTM * (1.0 - ICA_MUP) / ICA_KTS + ICA_FTM / ICA_KT
ECA_KET = ECA_KCS * ECA_KT / (ECA_KT + ECA_KCS)
ECA_DM = ECA_FTM / ECA_KCS + ECA_FTM / ECA_KT


def test_c01_quoted_travel_and_limit_force(ica, eca, misa):
    """Quoted (d_m, F_tm) pairs hold within 2%; the map hits F_tm exactly
    at the derived travel limit (rel 1e-9)."""
    for actuator, d_quote, f_quote in ((ica, 34.8, 112.4),
                                       (eca, 28.5, 252.9)):
        assert actuator.d_max_total == pytest.approx(d_quote, rel=0.02)
        assert actuator.F_tm == pytest.approx(f_quote, rel=0.02)
        assert force_from_displacement(actuator, actuator.d_max_total) == \
            pytest.approx(actuator.F_tm, rel=1e-9)
    # the tabulated stand-in has no quoted pair; the law consistency holds
    assert force_from_displacement(misa, misa.d_max_total) == \
        pytest.approx(misa.F_tm, rel=1e-9)


def test_c02_stage_closed_forms(ica_pair, eca_pair):
    """The single-path force law reproduces the three closed-form stages
    (opposing slack, controllable, tendon-only) to rel 1e-9 over 1000
    sampled pre-tensions per stage and pair."""
    rng = np.random.default_rng(2024)
    cases = ((ica_pair.joint, ICA_KET, ICA_DM, ICA_KT, ICA_FTM),
             (eca_pair.joint, ECA_KET, ECA_DM, ECA_KT, ECA_FTM))
    n = 1000
    for joint, k_et, d_m, k_t, f_tm in cases:
        dr = DELTA * R_J
        for d_s in rng.uniform(0.0, dr, n):              # S1
            expected = k_et * dr + (1.0 + MU_S) * k_et * d_s
            assert external_force(joint, DELTA, d_s) == \
                pytest.approx(expected, rel=1e-9)
        for d_s in rng.uniform(dr, d_m - dr, n):         # S2
            expected = 2.0 * k_et * dr + MU_S * k_et * d_s
            assert external_force(joint, DELTA, d_s) == \
                pytest.approx(expected, rel=1e-9)
        for d_s in rng.uniform(d_m + dr, 2.0 * d_m, n):  # S5
            f_pre = f_tm + (d_s - d_m) * k_t
            expected = 2.0 * dr * k_t + MU_S * f_pre
            assert external_force(joint, DELTA, d_s) == \
                pytest.approx(expected, rel=1e-9)


def test_c03_stage_boundary_continuity(ica_pair, eca_pair):
    """The passive joint force F_e(delta=0.087, d_s) is continuous in d_s
    across all four stage boundaries to 1e-6 N, for both pairs
    (eps = 1e-9 mm scans)."""
    eps = 1e-9
    for loaded in (ica_pair, eca_pair):
        joint, delta = loaded.joint, loaded.delta
        for b in stage_boundaries(joint, delta):
            lo = external_force(joint, delta, b - eps)
            hi = external_force(joint, delta, b + eps)
            assert abs(hi - lo) <= 1e-6, (joint.actuator.label, b)


def test_c04_quoted_stiffness_ranges(ica_pair, eca_pair):
    """Controllable stiffness ranges against the quoted figures: torsion
    pair endpoints within 15% of (0.60, 1.15) N m/rad, compression pair
    K_smin within 5% of 1.82 N m/rad."""
    ica_rng = controllable_stiffness_range(ica_pair.joint, ica_pair.delta)
    assert ica_rng.K_smin / 1000.0 == pytest.approx(0.60, rel=0.15)
    assert ica_rng.K_smax / 1000.0 == pytest.approx(1.15, rel=0.15)

    eca_rng = controllable_stiffness_range(eca_pair.joint, eca_pair.delta)
    assert eca_rng.K_smin / 1000.0 == pytest.approx(1.82, rel=0.05)
    # Two reference figures are quoted for this prototype's upper
    # endpoint: 4507 N mm/rad and 3.12 N m/rad. They disagree with each
    # other; the larger one matches the same closed form evaluated near
    # the top of the pre-tension range (d_s = d_m - 2*delta*R gives
    # 4502) rather than at the range endpoint used here. The
    # formula-derived endpoint is asserted (it sits within 5% of the
    # 3.12 figure) and both quotes are kept for reference.
    quoted_upper_Nm = (4.507, 3.12)
    assert eca_rng.K_smax == joint_stiffness(eca_pair.joint, eca_pair.delta,
                                             eca_pair.joint.d_m / 2.0)
    assert eca_rng.K_smax == pytest.approx(3226.175548589341, rel=1e-12)
    assert eca_rng.K_smax / 1000.0 == pytest.approx(quoted_upper_Nm[1],
                                                    rel=0.05)
    assert eca_rng.K_smax / 1000.0 != pytest.approx(quoted_upper_Nm[0],
                                                    rel=0.05)


def test_c05_torque_ceiling(ica_pair):
    """Absolute max torque R*F_tm within 1% of the quoted 1.12 N m; the
    controllable ceiling never exceeds it and is non-increasing in
    pre-tension (slack 1e-9)."""
    joint = ica_pair.joint
    tau_abs = absolute_max_torque(joint)
    assert tau_abs / 1000.0 == pytest.approx(1.12, rel=0.01)
    assert max_controllable_torque(joint, 0.0) == \
        pytest.approx(tau_abs, rel=1e-12)
    grid = np.linspace(0.0, joint.d_m, 100)
    taus = [max_controllable_torque(joint, d) for d in grid]
    for prev, cur in zip(taus, taus[1:]):
        assert cur <= prev * (1.0 + 1e-9) + 1e-9
    assert max(taus) <= tau_abs * (1.0 + 1e-12)


def test_c06_acceleration_bound_kink(ica_pair, eca_pair):
    """The slack-avoidance acceleration bound is piecewise linear with a
    kink at d_m/2 for both pairs: segment slopes match the closed forms to
    rel 1e-9 and their ratio exceeds 2."""
    scale = (R_J / 1000.0) / 0.001   # moment arm in meters over inertia
    for loaded, k_et, k_t in ((ica_pair, ICA_KET, ICA_KT),
                              (eca_pair, ECA_KET, ECA_KT)):
        joint = loaded.joint
        mid, h = joint.d_m / 2.0, 0.25
        a = lambda d: max_allowable_acceleration(joint, d)
        slope_below = (a(mid) - a(mid - h)) / h
        slope_above = (a(mid + h) - a(mid)) / h
        assert slope_below == pytest.approx((2.0 + MU_S) * k_et * scale,
                                            rel=1e-9)
        assert slope_above == pytest.approx((2.0 * k_t + MU_S * k_et)
                                            * scale, rel=1e-9)
        assert slope_above / slope_below > 2.0


BASE_TABLE = tuple((d, 2.0 * d + 0.05 * d ** 3) for d in range(0, 13))


def _random_actuator(rng):
    k_t = float(rng.uniform(5.0, 200.0))
    kind = rng.integers(0, 3)
    if kind == 0:
        element = ElasticElementSpec.torsion_internal(
            k_e=float(rng.uniform(0.5, 50.0)),
            pulley_radius_r=float(rng.uniform(1.0, 20.0)),
            mu_p=float(rng.uniform(0.0, 0.3)),
            F_tm=float(rng.uniform(10.0, 500.0)))
    elif kind == 1:
        element = ElasticElementSpec.compression_external(
            k_cs=float(rng.uniform(0.5, 100.0)),
            F_tm=float(rng.uniform(10.0, 500.0)))
    else:
        sd, sf = rng.uniform(0.5, 2.0, 2)
        element = ElasticElementSpec.tabulated(
            tuple((d * sd, f * sf) for d, f in BASE_TABLE))
    return ActuatorModel(element=element, k_t=k_t,
                         rated_force=element.F_tm, rated_speed=100.0)


def test_c07_round_trip_inversion():
    """1000 random actuator parameterizations (all three element kinds)
    pass force<->displacement round trips to 1e-6 relative, and the
    inversion agrees with a brute-force bisection oracle."""
    rng = np.random.default_rng(77)

    def oracle_force_at(actuator, d_target):
        # bisect the closed-form inverse map to recover the force
        lo, hi = 0.0, actuator.F_tm + 2.0 * actuator.k_t * d_target + 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if displacement_from_force(actuator, mid) < d_target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for _ in range(1000):
        actuator = _random_actuator(rng)
        F = float(rng.uniform(0.0, 1.5 * actuator.F_tm))
        d = displacement_from_force(actuator, F)
        assert force_from_displacement(actuator, d) == \
            pytest.approx(F, rel=1e-6, abs=1e-9)

        d = float(rng.uniform(0.0, 1.3 * actuator.d_max_total))
        F = force_from_displacement(actuator, d)
        assert displacement_from_force(actuator, F) == \
            pytest.approx(d, rel=1e-6, abs=1e-9)
        assert oracle_force_at(actuator, d) == \
            pytest.approx(F, rel=1e-6, abs=1e-6)


def test_c08_arm_reach_and_workspace(arm, tmp_path):
    """Full extension reaches exactly b+c+d = 0.63 m (abs 1e-9); rotations
    stay orthonormal to 1e-12 over 10000 random poses; the bundled n=1e5
    workspace run is seed-deterministic (byte-identical CSV) with max
    reach in [0.95, 1.0] of the geometric limit."""
    fk = forward_kinematics(arm, full_extension_joint_values())
    reach = float(np.linalg.norm(fk[:3, 3]))
    assert reach == pytest.approx(0.63, abs=1e-9)
    assert reach == pytest.approx(arm.reach_limit, abs=1e-9)

    rng = np.random.default_rng(13)
    eye = np.eye(3)
    for _ in range(10000):
        q = {name: float(rng.uniform(*arm.rom[name])) for name in JOINT_ORDER}
        rot = forward_kinematics(arm, q)[:3, :3]
        assert np.max(np.abs(rot.T @ rot - eye)) <= 1e-12

    spec = parse_experiment(DATA_DIR / "exp_workspace.yaml")
    assert spec.n == 100000
    r1 = run_experiment(spec, out_dir=tmp_path / "a")
    r2 = run_experiment(spec, out_dir=tmp_path / "b")
    assert filecmp.cmp(r1.output_path, r2.output_path, shallow=False)
    assert r1.summary == r2.summary
    assert 0.95 * 0.63 <= r1.summary["max_reach_m"] <= 0.63 + 1e-9


def test_c09_lift_saturations_and_power(lift):
    """The dumbbell lift saturates at the kinematic speed cap within 2% of
    3.0 rad/s, P = tau*omega holds exactly, the simulated peak power lies
    within 2% below the 55 W rated-force*rated-speed bound, and the energy
    balance closes within 0.5%."""
    trace = simulate_lift(lift)
    assert trace.time_to_target is not None
    omega_sat = float(trace.omega.max())
    assert omega_sat == pytest.approx(3.0, rel=0.02)
    np.testing.assert_array_equal(trace.power, trace.tau * trace.omega)
    rated = (sum(a.rated_force for a in lift.actuators)
             * lift.rated_tendon_speed)
    assert rated == pytest.approx(2 * 250.0 * 0.11)
    assert 0.98 * rated <= trace.peak_power < rated

    work = float(np.sum(trace.tau[:-1] * trace.omega[:-1]) * lift.dt)
    arm_m = (lift.limb_mass * lift.limb_com_distance
             + lift.payload_mass * lift.payload_distance)
    d_pe = lift.gravity * arm_m * (math.sin(trace.theta[-1])
                                   - math.sin(trace.theta[0]))
    d_ke = 0.5 * lift.total_inertia * trace.omega[-1] ** 2
    assert work == pytest.approx(d_pe + d_ke, rel=5e-3)


def test_c10_experiments_deterministic_and_schema_clean(tmp_path):
    """All 8 bundled experiment specs run cleanly twice, produce
    byte-identical data and summary files, and every CSV passes the
    unit-suffix schema gate."""
    spec_names = sorted(p.name for p in DATA_DIR.glob("exp_*.yaml"))
    assert len(spec_names) == 8
    for name in spec_names:
        spec = parse_experiment(DATA_DIR / name)
        r1 = run_experiment(spec, out_dir=tmp_path / "a")
        r2 = run_experiment(spec, out_dir=tmp_path / "b")
        assert r1.output_path.is_file() and r2.output_path.is_file()
        assert filecmp.cmp(r1.output_path, r2.output_path, shallow=False), name
        assert filecmp.cmp(r1.summary_path, r2.summary_path,
                           shallow=False), name
        if r1.output_path.suffix == ".csv":
            validate_csv_schema(r1.output_path)
        assert r1.summary["rows"] >= 1
