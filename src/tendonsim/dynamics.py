"""Single-joint lift simulation under actuator force and speed saturation.

A payload-loaded limb pivots about one joint driven through a tendon of
moment arm joint_R by one or two actuators (their forces add). The joint
angle theta is measured from the horizontal, so the gravity load torque is

    tau_g(theta) = g * cos(theta) * (m_limb*L_com + m_payload*L_payload)

and the equation of motion is I_total*theta_dd = tau_act - tau_g with
I_total = m_limb*L_com^2 + m_payload*L_payload^2 (point-mass limb model).

The actuator interface saturates twice: tendon force is capped at the rated
force (so tau_act is capped at F_rated_total*joint_R), and tendon speed at
the commanded contraction speed, which cannot exceed the rated speed. The
speed cap is kinematic: a taut tendon moves exactly as fast as the motor
pays it in, so omega is clamped hard at v/joint_R and the torque actually
applied while riding the cap is back-computed from the motion constraint,
keeping the power accounting P = tau*omega exact.

Integration is explicit Euler: the system is one-dimensional and stiff-free,
and the energy/convergence checks in the test suite guard the accuracy.

SI units throughout this module (m, kg, s, N, Nm, W); actuator rated values
keep their native millimeter units and are converted at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .elastic import ActuatorModel

__all__ = [
    "LiftScenario",
    "LiftState",
    "LiftTrace",
    "step_dynamics",
    "simulate_lift",
    "mechanical_power",
]

MM_PER_M = 1000.0


@dataclass(frozen=True)
class LiftScenario:
    """Geometry, load and integration settings for one lift.

    Fields:
        payload_mass: kg, at payload_distance (m) from the joint.
        limb_mass: kg, lumped at limb_com_distance (m).
        joint_R: actuator moment arm at the joint (m).
        actuators: 1 or 2 actuator models; tendon forces add.
        gravity: m/s^2.
        theta_start, theta_target: rad from horizontal.
        dt: integration step (s); t_max: time budget (s).
    """

    payload_mass: float
    limb_mass: float
    limb_com_distance: float
    payload_distance: float
    joint_R: float
    actuators: Tuple[ActuatorModel, ...]
    theta_start: float
    theta_target: float
    dt: float
    t_max: float
    gravity: float = 9.81
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("payload_mass", "limb_mass", "limb_com_distance",
                     "payload_distance", "joint_R", "theta_start",
                     "theta_target", "dt", "t_max", "gravity"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.payload_mass < 0 or self.limb_mass < 0:
            raise ValueError("masses must be >= 0")
        if self.limb_com_distance <= 0 or self.payload_distance <= 0:
            raise ValueError("distances must be > 0")
        if self.joint_R <= 0:
            raise ValueError(f"joint_R must be > 0, got {self.joint_R}")
        if not 1 <= len(self.actuators) <= 2:
            raise ValueError("scenario takes 1 or 2 actuators")
        if self.dt <= 0 or self.t_max <= 0:
            raise ValueError("dt and t_max must be > 0")
        if self.theta_start == self.theta_target:
            raise ValueError("theta_start must differ from theta_target")
        if self.total_inertia <= 0:
            raise ValueError("at least one mass must be positive")

    @property
    def total_inertia(self) -> float:
        """Point-mass rotational inertia about the joint (kg*m^2)."""
        return (self.limb_mass * self.limb_com_distance ** 2
                + self.payload_mass * self.payload_distance ** 2)

    @property
    def max_torque(self) -> float:
        """Torque with every actuator at rated force (Nm)."""
        return sum(a.rated_force for a in self.actuators) * self.joint_R

    @property
    def rated_tendon_speed(self) -> float:
        """Slowest rated tendon speed in the set, in m/s."""
        return min(a.rated_speed for a in self.actuators) / MM_PER_M

    @property
    def gravity_moment(self) -> float:
        """Mass moment about the joint, m_limb*L_com + m_payload*L_payload
        (kg*m)."""
        return (self.limb_mass * self.limb_com_distance
                + self.payload_mass * self.payload_distance)


@dataclass(frozen=True)
class LiftState:
    t: float
    theta: float
    omega: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.t, self.theta, self.omega))):
            raise ValueError("non-finite state; integration fault")


@dataclass(frozen=True)
class LiftTrace:
    """Time series of one lift plus its scalar summary.

    Columns: t (s), theta (rad), omega (rad/s), tau (applied, Nm),
    tau_gravity (Nm), power (W, = tau*omega pointwise).
    """

    t: np.ndarray
    theta: np.ndarray
    omega: np.ndarray
    tau: np.ndarray
    tau_gravity: np.ndarray
    power: np.ndarray
    peak_power: float
    peak_torque: float
    time_to_target: Optional[float]   # None when t_max ran out
    reached_target: bool


def mechanical_power(tau: float, omega: float) -> float:
    """Mechanical power P = tau*omega (W for Nm and rad/s)."""
    return tau * omega


def _step_law(scenario: LiftScenario, v_cmd: float, direction: float):
    """The explicit-Euler step of the lift under tendon speed v_cmd (m/s)
    toward direction (+1 or -1), with the scenario constants computed once.

    Returns step(theta, omega) -> (tau_g, tau, next theta, next omega).
    Full rated force drives toward the target while below the speed cap.
    The cap itself is kinematic, so the torque that puts omega exactly on
    it is back-computed from the motion constraint; either way the applied
    torque tau is clamped to what the pair can exert (|tau| <= max_torque,
    negative torque meaning the antagonist brakes).
    """
    I = scenario.total_inertia
    dt = scenario.dt
    g = scenario.gravity
    moment = scenario.gravity_moment
    tau_max = scenario.max_torque
    omega_cap = direction * v_cmd / scenario.joint_R

    def step(theta: float, omega: float) -> Tuple[float, float, float, float]:
        tau_g = g * math.cos(theta) * moment
        # torque that lands omega exactly on the cap after this step
        tau_hold = I * (omega_cap - omega) / dt + tau_g
        if direction * omega < direction * omega_cap:
            tau = direction * tau_max
            if direction * tau > direction * tau_hold:
                tau = tau_hold  # full force would cross the cap: ride it
        else:
            tau = tau_hold
        tau = min(max(tau, -tau_max), tau_max)
        return tau_g, tau, theta + omega * dt, omega + (tau - tau_g) / I * dt
    return step


def step_dynamics(scenario: LiftScenario, state: LiftState,
                  commanded_tendon_speed: float) -> LiftState:
    """Advance one explicit-Euler step under the given tendon speed command
    (m/s, signed toward the target; magnitude capped by the rated speed)."""
    v = abs(commanded_tendon_speed)
    if v > scenario.rated_tendon_speed * (1 + 1e-12):
        raise ValueError(f"commanded tendon speed {v} m/s exceeds the rated "
                         f"{scenario.rated_tendon_speed} m/s")
    direction = math.copysign(1.0, commanded_tendon_speed) \
        if commanded_tendon_speed != 0.0 else 1.0
    _, _, theta, omega = _step_law(scenario, v, direction)(state.theta,
                                                          state.omega)
    return LiftState(t=state.t + scenario.dt, theta=theta, omega=omega)


def simulate_lift(scenario: LiftScenario) -> LiftTrace:
    """Run the lift at full commanded speed until theta reaches the target
    or t_max expires (timeout keeps the partial trace)."""
    s = scenario
    direction = math.copysign(1.0, s.theta_target - s.theta_start)
    v_cmd = s.rated_tendon_speed
    n_max = int(math.ceil(s.t_max / s.dt))

    th_col: List[float] = []
    om_col: List[float] = []
    tau_col: List[float] = []
    tg_col: List[float] = []

    step = _step_law(s, v_cmd, direction)
    theta, omega = s.theta_start, 0.0
    reached = False
    time_to_target: Optional[float] = None
    for i in range(n_max + 1):
        t = i * s.dt  # not a running sum, which drifts from i*dt
        tau_g, tau, theta_next, omega_next = step(theta, omega)
        th_col.append(theta)
        om_col.append(omega)
        tau_col.append(tau)
        tg_col.append(tau_g)
        if direction * (theta - s.theta_target) >= 0.0:
            reached = True
            time_to_target = t
            break
        if t >= s.t_max:
            break
        theta, omega = theta_next, omega_next
        if not (math.isfinite(theta) and math.isfinite(omega)):
            raise FloatingPointError("non-finite state; integration fault")

    tau_arr = np.asarray(tau_col)
    om_arr = np.asarray(om_col)
    power = tau_arr * om_arr
    return LiftTrace(
        t=np.arange(len(th_col)) * s.dt, theta=np.asarray(th_col),
        omega=om_arr, tau=tau_arr, tau_gravity=np.asarray(tg_col), power=power,
        peak_power=float(power.max()),
        peak_torque=float(np.abs(tau_arr).max()),
        time_to_target=time_to_target, reached_target=reached)
