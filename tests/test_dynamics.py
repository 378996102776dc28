"""Lift dynamics: scenario algebra, saturation behavior, integration checks.

The bundled dumbbell scenario (two compression-spring actuators, 2 kg
payload) is the reference workload; frozen values below were produced by
this implementation and guard against regressions, while the energy and
step-refinement checks guard the integration itself.
"""

import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tendonsim import LiftScenario, simulate_lift
from tendonsim import dynamics
from tendonsim.dynamics import _step_law

OMEGA_CAP = 0.11 / 0.0367   # rated tendon speed over moment arm, rad/s


# --------------------------------------------------------------------------
# scenario algebra


def test_total_inertia(lift):
    # 1 kg at 0.11 m plus 2 kg at 0.25 m, point-mass model
    assert lift.total_inertia == pytest.approx(0.1371, rel=1e-12)


def test_max_torque_is_rated_force_times_moment_arm(lift):
    assert lift.max_torque == pytest.approx((250.0 + 250.0) * 0.0367,
                                            rel=1e-12)
    assert lift.max_torque == pytest.approx(18.35, rel=1e-12)


def test_rated_tendon_speed_is_slowest_of_the_set(lift):
    assert lift.rated_tendon_speed == pytest.approx(0.11, rel=1e-12)


def _gravity_torque(scenario, theta):
    """The load torque the step law applies at angle theta (Nm)."""
    step = _step_law(scenario, scenario.rated_tendon_speed)
    return step(theta, 0.0)[0]


def test_gravity_torque_profile(lift):
    tg0 = 9.81 * (1.0 * 0.11 + 2.0 * 0.25)
    assert _gravity_torque(lift, 0.0) == pytest.approx(tg0, rel=1e-12)
    assert _gravity_torque(lift, 0.0) == pytest.approx(5.9841, rel=1e-12)
    assert _gravity_torque(lift, math.radians(30.0)) == pytest.approx(
        tg0 * math.cos(math.radians(30.0)), rel=1e-12)
    assert _gravity_torque(lift, math.radians(-90.0)) == pytest.approx(
        0.0, abs=1e-12)


def test_gravity_torque_payload_only(lift):
    bare = dataclasses.replace(lift, limb_mass=0.0)
    assert _gravity_torque(bare, 0.0) == pytest.approx(9.81 * 2.0 * 0.25,
                                                       rel=1e-12)


@pytest.mark.parametrize("changes", [
    {"payload_mass": -1.0},
    {"limb_com_distance": 0.0},
    {"payload_distance": -0.1},
    {"joint_R": 0.0},
    {"actuators": ()},
    {"dt": 0.0},
    {"t_max": -1.0},
    {"theta_start": 0.5, "theta_target": 0.5},
    {"payload_mass": 0.0, "limb_mass": 0.0},
])
def test_scenario_validation(lift, changes):
    with pytest.raises(ValueError):
        dataclasses.replace(lift, **changes)


def test_scenario_rejects_three_actuators(lift):
    with pytest.raises(ValueError, match="1 or 2"):
        dataclasses.replace(lift, actuators=lift.actuators * 3)


# --------------------------------------------------------------------------
# single stepping


def test_first_step_from_rest_uses_full_torque(lift):
    step = _step_law(lift, lift.rated_tendon_speed)
    _, _, theta, omega = step(lift.theta_start, 0.0)
    expected = ((lift.max_torque - _gravity_torque(lift, lift.theta_start))
                / lift.total_inertia * lift.dt)
    assert omega == expected
    assert theta == lift.theta_start   # position lags one step


def _three_way_step_law(scenario, v_cmd, direction):
    """The step law as an earlier version wrote it, as a reference: full
    rated force toward the target below the speed cap unless it would
    cross the cap, else the torque that holds the cap, then the clamp."""
    I = scenario.total_inertia
    dt = scenario.dt
    g = scenario.gravity
    moment = scenario.gravity_moment
    tau_max = scenario.max_torque
    omega_cap = direction * v_cmd / scenario.joint_R

    def step(theta, omega):
        tau_g = g * math.cos(theta) * moment
        tau_hold = I * (omega_cap - omega) / dt + tau_g
        if direction * omega < direction * omega_cap:
            tau = direction * tau_max
            if direction * tau > direction * tau_hold:
                tau = tau_hold
        else:
            tau = tau_hold
        tau = min(max(tau, -tau_max), tau_max)
        return tau_g, tau, theta + omega * dt, omega + (tau - tau_g) / I * dt
    return step


# 0 and magnitudes log-uniform over 1e-6 .. 1e300
_magnitudes = st.one_of(st.just(0.0), st.builds(
    lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0), st.integers(-6, 299)))


@settings(max_examples=1000, deadline=None)
@given(direction=st.sampled_from([1.0, -1.0]), v=_magnitudes,
       side=st.sampled_from([-1.0, 0.0, 1.0]), offset=_magnitudes,
       theta=st.floats(-4.0, 4.0), payload_mass=st.floats(0.0, 1e3),
       joint_R=st.floats(1e-4, 1.0), dt=st.floats(1e-7, 1.0))
def test_step_law_equals_the_three_way_law(lift, direction, v, side, offset,
                                           theta, payload_mass, joint_R,
                                           dt):
    # the one clamp decides as the three branches did, bit for bit, with
    # omega below (side -1), at (0) or past (+1) the cap toward the target
    s = dataclasses.replace(lift, payload_mass=payload_mass,
                            joint_R=joint_R, dt=dt)
    omega = direction * (v / joint_R + side * offset)
    new = _step_law(s, direction * v)(theta, omega)
    old = _three_way_step_law(s, v, direction)(theta, omega)
    assert struct.pack("4d", *new) == struct.pack("4d", *old)


def test_zero_speed_command_holds_position(lift):
    # commanding zero tendon speed back-computes gravity compensation
    _, _, theta, omega = _step_law(lift, 0.0)(0.3, 0.0)
    assert omega == 0.0
    assert theta == 0.3


@pytest.mark.parametrize("gravity", [9.81, 0.0])
@pytest.mark.parametrize("theta,omega", [(0.3, 0.0), (2.5, 0.0), (0.3, 1.5),
                                         (2.5, -0.0)])
def test_negative_zero_command_steps_as_zero(lift, gravity, theta, omega):
    # the sign of a zero command reaches only a zero that the step erases
    s = dataclasses.replace(lift, gravity=gravity)
    a, b = (_step_law(s, v)(theta, omega)[2:] for v in (0.0, -0.0))
    assert struct.pack("2d", *a) == struct.pack("2d", *b)


# --------------------------------------------------------------------------
# the bundled lift


def test_bundled_lift_reaches_target(lift):
    tr = simulate_lift(lift)
    assert tr.time_to_target is not None
    assert len(tr.t) == 7102
    assert tr.time_to_target == tr.t[-1]
    assert tr.time_to_target == pytest.approx(0.7101, abs=1e-9)
    # the final row is the first at/past the target
    assert tr.theta[-1] >= lift.theta_target
    assert tr.theta[-2] < lift.theta_target


def test_lift_time_is_step_index_times_dt(lift):
    tr = simulate_lift(lift)
    assert tr.t.tolist() == [i * lift.dt for i in range(len(tr.t))]
    assert tr.t[3552] == 0.3552   # a running sum of dt drifts off it
    assert tr.time_to_target == 7101 * lift.dt


def test_bundled_lift_saturations(lift):
    tr = simulate_lift(lift)
    assert tr.peak_torque == lift.max_torque
    assert np.all(np.abs(tr.tau) <= lift.max_torque)
    # speed saturates exactly on the kinematic cap and stays there
    assert float(tr.omega.max()) == pytest.approx(OMEGA_CAP, rel=1e-12)
    assert np.all(np.abs(tr.omega) <= OMEGA_CAP * (1 + 1e-12))
    riding = tr.omega >= OMEGA_CAP * (1 - 1e-9)
    assert riding.sum() > 1000
    # while riding the cap the applied torque is exactly the gravity load
    np.testing.assert_array_equal(tr.tau[riding], tr.tau_gravity[riding])


def test_bundled_lift_rides_one_cap_each_step(lift):
    # the step law has two regimes: on the force cap, or landing omega on
    # the speed cap
    tr = simulate_lift(lift)
    on_force_cap = np.abs(tr.tau) == lift.max_torque
    assert int(on_force_cap.sum()) == 224 and len(tr.tau) == 7102
    landed = tr.omega[1:][~on_force_cap[:-1]]
    np.testing.assert_allclose(landed, OMEGA_CAP, rtol=1e-12)


def test_bundled_lift_power_accounting(lift):
    tr = simulate_lift(lift)
    np.testing.assert_array_equal(tr.power, tr.tau * tr.omega)
    assert tr.peak_power == pytest.approx(54.574340898520816, rel=1e-12)
    # structural bound: tau <= F_rated*R and omega <= v_rated/R, so
    # P < F_rated_total * v_rated = 500 N * 0.11 m/s
    assert tr.peak_power < 500.0 * 0.11


def test_bundled_lift_energy_balance(lift):
    tr = simulate_lift(lift)
    work = float(np.sum(tr.tau[:-1] * tr.omega[:-1]) * lift.dt)
    arm = (lift.limb_mass * lift.limb_com_distance
           + lift.payload_mass * lift.payload_distance)
    d_pe = lift.gravity * arm * (math.sin(tr.theta[-1])
                                 - math.sin(tr.theta[0]))
    d_ke = 0.5 * lift.total_inertia * tr.omega[-1] ** 2
    assert work == pytest.approx(d_pe + d_ke, rel=5e-3)


def test_bundled_lift_step_refinement(lift):
    p1 = simulate_lift(dataclasses.replace(lift, dt=5e-5)).peak_power
    p2 = simulate_lift(dataclasses.replace(lift, dt=2.5e-5)).peak_power
    assert p1 == pytest.approx(p2, rel=5e-3)


def test_timeout_keeps_partial_trace(lift):
    tr = simulate_lift(dataclasses.replace(lift, t_max=0.05))
    assert tr.time_to_target is None
    assert len(tr.t) == 501
    assert tr.theta[-1] < lift.theta_target


def test_lowering_reaches_target(lift):
    down = dataclasses.replace(lift, theta_start=0.0,
                               theta_target=math.radians(-90.0))
    tr = simulate_lift(down)
    assert tr.time_to_target is not None
    assert tr.theta[-1] <= down.theta_target
    assert float(tr.omega.min()) == pytest.approx(-OMEGA_CAP, rel=1e-12)
    assert np.all(np.abs(tr.omega) <= OMEGA_CAP * (1 + 1e-12))


@pytest.mark.parametrize("n", [100_000, 1_000_000])
def test_lift_memory_per_step_is_bounded(lift, n):
    # the four step columns hold 8-byte doubles, not Python float objects
    # (about 186 B a step); the target is out of reach, so all n run
    unending = dataclasses.replace(lift, theta_target=1e9, t_max=n * lift.dt)
    tracemalloc.start()
    try:
        tr = simulate_lift(unending)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.time_to_target is None
    assert len(tr.t) == n + 1
    assert peak <= 64 * len(tr.t)


# --------------------------------------------------------------------------
# the speed-cap runs in numpy against the scalar loop


def _scalar_lift(s):
    """simulate_lift as one scalar loop of the step law, the reference for
    its numpy runs: the rows (theta, omega, tau, tau_g) and the time to
    target (None on a timeout), or the loop's ValueError."""
    direction = math.copysign(1.0, s.theta_target - s.theta_start)
    step = _step_law(s, direction * s.rated_tendon_speed)
    theta, omega = s.theta_start, 0.0
    rows = []
    for i in range(int(math.ceil(s.t_max / s.dt)) + 1):
        tau_g, tau, theta_next, omega_next = step(theta, omega)
        rows.append((theta, omega, tau, tau_g))
        if direction * (theta - s.theta_target) >= 0.0:
            return rows, i * s.dt
        if i * s.dt >= s.t_max:
            break
        theta, omega = theta_next, omega_next
        if not (math.isfinite(theta) and math.isfinite(omega)):
            raise ValueError(f"non-finite state at t={(i + 1) * s.dt:g} s; "
                             f"integration fault")
    return rows, None


def _assert_lift_is_the_scalar_loop(s):
    try:
        rows, time_to_target = _scalar_lift(s)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            simulate_lift(s)
        assert str(err.value) == str(exc)
        return
    tr = simulate_lift(s)
    got = np.column_stack((tr.theta, tr.omega, tr.tau, tr.tau_gravity))
    assert got.tobytes() == np.array(rows).tobytes()
    assert tr.time_to_target == time_to_target


@pytest.mark.parametrize("changes", [
    lambda s: s,
    lambda s: dataclasses.replace(s, dt=s.dt / 10),
    lambda s: dataclasses.replace(s, t_max=0.3),
    # ceil(t_max/dt) is 2916, but step 2915 already has t >= t_max
    lambda s: dataclasses.replace(s, t_max=2915 * s.dt),
    lambda s: dataclasses.replace(s, theta_start=0.0,
                                  theta_target=math.radians(-90.0)),
    # rated forces so small that the force cap rounds to 0 Nm: the limb
    # cannot move, and every step's torque is -0.0, which a numpy
    # maximum/minimum clamp would turn into 0.0, so this lift never rides
    lambda s: dataclasses.replace(
        s, gravity=0.0, t_max=0.05, theta_target=-3.0,
        actuators=(dataclasses.replace(s.actuators[0],
                                       rated_force=5e-324),) * 2),
    # a limb light enough to land on a huge speed cap in one step: theta
    # overflows a few steps into a run on the cap
    lambda s: dataclasses.replace(
        s, limb_mass=1e-300, payload_mass=0.0, joint_R=1e-4, dt=1e6,
        t_max=1e8, theta_target=1.7e308,
        actuators=(dataclasses.replace(s.actuators[0], rated_speed=1e300),)),
    # a subnormal force cap, on which a limb too heavy to gain speed from
    # it rides with every step's torque at the cap
    lambda s: dataclasses.replace(
        s, gravity=0.0, payload_mass=1e20, t_max=0.05,
        actuators=(dataclasses.replace(s.actuators[0],
                                       rated_force=1e-307),) * 2),
    # rated forces whose sum overflows: the force cap is inf
    lambda s: dataclasses.replace(
        s, actuators=(dataclasses.replace(s.actuators[0],
                                          rated_force=1e308),) * 2),
    # ceil(t_max/dt) is 292, but 292*dt < t_max: no step times out, and the
    # numpy run entered at step 62 ends by running out of steps at 293
    lambda s: dataclasses.replace(s, dt=0.0003744678112583868,
                                  t_max=0.10934460088744896),
], ids=["bundled", "dt_over_10", "timeout_mid_run", "timeout_before_n_max",
        "lowering", "no_torque", "theta_overflows", "subnormal_torque",
        "infinite_torque", "steps_run_out"])
def test_simulate_lift_is_the_scalar_loop(lift, changes):
    _assert_lift_is_the_scalar_loop(changes(lift))


_CLAMP_INPUTS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                 1e-310, -1e-310, 2.2250738585072009e-308, 18.35, -18.35,
                 *np.random.default_rng(17).standard_normal(200)
                 * 10.0 ** np.random.default_rng(18).integers(-320, 308,
                                                               200)]


@pytest.mark.parametrize("tau_max", [0.0, 5e-324, 2.2e-308, 18.35, 1e308,
                                     math.inf])
def test_numpy_clamp_is_the_scalar_clamp_unless_the_cap_is_zero(tau_max):
    # the numpy runs clamp by np.maximum/np.minimum, the scalar loop by
    # max/min; at a zero cap they pick different signed zeros, which is why
    # a lift with max_torque 0 never rides
    t = tau_max
    x = np.array(_CLAMP_INPUTS + [t, -t, -t / 2, t / 2])
    ours = np.minimum(np.maximum(x, -t), t)
    theirs = np.array([min(max(v, -t), t) for v in x.tolist()])
    assert (ours.tobytes() == theirs.tobytes()) == (tau_max != 0)


@settings(max_examples=150, deadline=None)
@given(lowering=st.booleans(), theta_start=st.floats(-2.0, 2.0),
       span=st.floats(1e-3, 3.0), payload_mass=st.floats(0.0, 10.0),
       joint_R=st.floats(0.005, 0.1),
       gravity=st.sampled_from([0.0, 9.81, 50.0]),
       dt=st.sampled_from([1e-9, 10.0])
       | st.builds(lambda e: 10.0 ** e, st.floats(-5.0, -1.0)),
       steps=st.integers(1, 10_000), cut=st.floats(0.0, 0.999))
def test_simulate_lift_is_the_scalar_loop_bit_for_bit(
        lift, lowering, theta_start, span, payload_mass, joint_R, gravity,
        dt, steps, cut):
    # both directions, lifts on the force cap throughout or landing on the
    # speed cap, tiny and huge steps, and t_max anywhere in a numpy run
    s = dataclasses.replace(
        lift, theta_start=theta_start,
        theta_target=theta_start - span if lowering else theta_start + span,
        payload_mass=payload_mass, joint_R=joint_R, gravity=gravity, dt=dt,
        t_max=dt * (steps + cut))
    _assert_lift_is_the_scalar_loop(s)


def test_bundled_lift_rides_the_speed_cap_in_numpy(lift, monkeypatch):
    # every step after omega lands on the cap is taken by the numpy runs
    ridden = []
    ride = dynamics._ride_speed_cap

    def counting(s, step, direction, i, *args):
        end, theta = ride(s, step, direction, i, *args)
        ridden.append((i, end))
        return end, theta

    monkeypatch.setattr(dynamics, "_ride_speed_cap", counting)
    tr = simulate_lift(lift)
    assert ridden == [(226, 7101)]
    assert len(tr.t) == 7102
