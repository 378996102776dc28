"""Lift dynamics: scenario algebra, saturation behavior, integration checks.

The bundled dumbbell scenario (two compression-spring actuators, 2 kg
payload) is the reference workload; frozen values below were produced by
this implementation and guard against regressions, while the energy and
step-refinement checks guard the integration itself.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from tendonsim import (LiftScenario, LiftState, mechanical_power,
                       simulate_lift, step_dynamics)
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
    step = _step_law(scenario, scenario.rated_tendon_speed, +1.0)
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


def test_state_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        LiftState(t=0.0, theta=math.nan, omega=0.0)


def test_mechanical_power_is_the_plain_product():
    assert mechanical_power(12.0, 3.0) == 36.0
    assert mechanical_power(5.0, -2.0) == -10.0
    assert mechanical_power(0.0, 4.0) == 0.0


# --------------------------------------------------------------------------
# single stepping


def test_step_rejects_overspeed_command(lift):
    state = LiftState(t=0.0, theta=lift.theta_start, omega=0.0)
    with pytest.raises(ValueError, match="exceeds the rated"):
        step_dynamics(lift, state, lift.rated_tendon_speed * 1.01)


def test_first_step_from_rest_uses_full_torque(lift):
    state = LiftState(t=0.0, theta=lift.theta_start, omega=0.0)
    nxt = step_dynamics(lift, state, lift.rated_tendon_speed)
    expected = ((lift.max_torque - _gravity_torque(lift, lift.theta_start))
                / lift.total_inertia * lift.dt)
    assert nxt.omega == expected
    assert nxt.theta == lift.theta_start   # position lags one step
    assert nxt.t == lift.dt


def test_step_dynamics_retraces_simulate_lift(lift):
    # one step law serves both: stepping by hand replays the trace bitwise
    trace = simulate_lift(lift)
    state = LiftState(t=0.0, theta=lift.theta_start, omega=0.0)
    for theta, omega in zip(trace.theta.tolist(), trace.omega.tolist()):
        assert (state.theta, state.omega) == (theta, omega)
        state = step_dynamics(lift, state, lift.rated_tendon_speed)


def test_zero_speed_command_holds_position(lift):
    # commanding zero tendon speed back-computes gravity compensation
    state = LiftState(t=0.0, theta=0.3, omega=0.0)
    nxt = step_dynamics(lift, state, 0.0)
    assert nxt.omega == 0.0
    assert nxt.theta == 0.3


# --------------------------------------------------------------------------
# the bundled lift


def test_bundled_lift_reaches_target(lift):
    tr = simulate_lift(lift)
    assert tr.reached_target
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
    assert not tr.reached_target
    assert tr.time_to_target is None
    assert len(tr.t) == 501
    assert tr.theta[-1] < lift.theta_target


def test_lowering_reaches_target(lift):
    down = dataclasses.replace(lift, theta_start=0.0,
                               theta_target=math.radians(-90.0))
    tr = simulate_lift(down)
    assert tr.reached_target
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
    assert not tr.reached_target
    assert len(tr.t) == n + 1
    assert peak <= 64 * len(tr.t)
