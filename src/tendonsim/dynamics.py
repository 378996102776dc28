"""Single-joint lift simulation under actuator force and speed saturation.

A payload-loaded limb pivots about one joint driven through a tendon of
moment arm joint_R by one or two actuators (their forces add). The joint
angle theta is measured from the horizontal, so the gravity load torque is

    tau_g(theta) = g * cos(theta) * (m_limb*L_com + m_payload*L_payload)

and the equation of motion is I_total*theta_dd = tau_act - tau_g with
I_total = m_limb*L_com^2 + m_payload*L_payload^2 (point-mass limb model).

The actuator interface saturates twice: tendon force is capped at the rated
force (so tau_act is capped at F_rated_total*joint_R), and tendon speed at
the slowest rated speed v. Each step applies the torque that would land
omega exactly on v/joint_R, back-computed from the motion constraint and
clamped to the force cap; a step rides one cap or the other, and the power
accounting P = tau*omega stays exact. The speed cap bounds |omega| only
while the force cap can hold the load: where |tau_g| exceeds the force
cap, the clamped torque cannot stop gravity from carrying omega past
v/joint_R (lift_dumbbell.yaml at payload_mass 12, a 28.7 Nm peak load
against an 18.35 Nm cap, has 547 such rows and never reaches its target).

Integration is explicit Euler: the system is one-dimensional and stiff-free,
and the energy/convergence checks in the test suite guard the accuracy.

SI units throughout this module (m, kg, s, N, Nm, W); actuator rated values
keep their native millimeter units and are converted at the boundary.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .elastic import MM_PER_M, ActuatorModel

__all__ = [
    "LiftScenario",
    "LiftTrace",
    "simulate_lift",
]


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
        if not 0 < self.total_inertia < math.inf:
            raise ValueError(f"total_inertia is {self.total_inertia} kg*m^2 "
                             f"at limb_mass={self.limb_mass} kg, "
                             f"limb_com_distance={self.limb_com_distance} m, "
                             f"payload_mass={self.payload_mass} kg and "
                             f"payload_distance={self.payload_distance} m; "
                             f"it must be finite and > 0")

    @property
    def total_inertia(self) -> float:
        """Point-mass inertia about the joint (kg*m^2); inf past range."""
        L, P = self.limb_com_distance, self.payload_distance
        return self.limb_mass * (L * L) + self.payload_mass * (P * P)

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


def _step_law(scenario: LiftScenario, tendon_speed: float,
              cos: Callable = math.cos, maximum: Callable = max,
              minimum: Callable = min):
    """The explicit-Euler step of the lift under the signed tendon speed
    (m/s), with the scenario constants computed once.

    Returns step(theta, omega) -> (tau_g, tau, next theta, next omega).
    tau is the torque that would land omega on the speed cap
    omega_cap = tendon_speed/joint_R after the step, clamped to what the
    pair can exert (|tau| <= max_torque, negative torque meaning the
    antagonist brakes). So each step rides the force cap or the speed cap,
    and omega stays within the speed cap only while max_torque can hold
    the gravity load tau_g.

    theta may be an array of finite angles at one omega with cos=_cos_each
    (math.cos on each element), maximum=np.maximum and minimum=np.minimum;
    each element then gets the bits of the scalar step unless max_torque
    is 0, where numpy's clamp and max/min pick different signed zeros.
    """
    I = scenario.total_inertia
    dt = scenario.dt
    g = scenario.gravity
    moment = scenario.gravity_moment
    tau_max = scenario.max_torque
    omega_cap = tendon_speed / scenario.joint_R

    def step(theta, omega: float):
        tau_g = g * cos(theta) * moment
        tau = minimum(maximum(I * (omega_cap - omega) / dt + tau_g,
                              -tau_max), tau_max)
        return tau_g, tau, theta + omega * dt, omega + (tau - tau_g) / I * dt
    return step


# math.cos element by element, as the step law needs it on arrays: the
# same libm cosine
def _cos_each(theta: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.cos, theta.tolist()), float, len(theta))


# steps of the first numpy run on the speed cap; each run taken whole
# doubles the next, up to _RUN_MAX, so the steps a ride computes past the
# step it stops at are no more than _RUN_MIN plus the steps it kept
_RUN_MIN = 64
_RUN_MAX = 4096


def _ride_speed_cap(s: LiftScenario, step, direction: float, i: int,
                    n_max: int, theta: float, omega: float,
                    columns: Tuple[array, ...]) -> Tuple[int, float]:
    """Append steps i, i+1, ... at a constant omega in numpy runs, as long
    as each step would leave omega unchanged and simulate_lift would go on
    past it: no target, no timeout. Returns the index and theta of the
    first step that fails this, for the scalar loop to take, or n_max + 1
    when every step passed. A run whose last next theta is not finite
    appends nothing and returns where it began.

    At a constant omega, theta is a sequential sum of omega*dt, which
    np.add.accumulate forms in the loop's order. That sum is monotone, so
    when the last next theta is finite, every angle of the run is, and
    step (the step law on arrays) gives each step the bits of the scalar
    step.
    """
    run = _RUN_MIN
    with np.errstate(over="ignore", invalid="ignore"):
        while i <= n_max:
            m = min(run, n_max + 1 - i)
            th = np.full(m, omega * s.dt)
            th[0] = theta
            np.add.accumulate(th, out=th)
            if not math.isfinite(float(th[-1]) + omega * s.dt):
                return i, theta
            tau_g, tau, th_next, om_next = step(th, omega)
            stop = ((om_next != omega)
                    | (direction * (th - s.theta_target) >= 0.0)
                    | (np.arange(i, i + m) * s.dt >= s.t_max))
            k = int(stop.argmax()) if stop.any() else m
            for col, values in zip(columns, (th, np.full(k, omega), tau,
                                             tau_g)):
                col.frombytes(values[:k].tobytes())
            i += k
            if k < m:
                return i, float(th[k])
            theta = float(th_next[-1])
            run = min(2 * run, _RUN_MAX)
    return i, theta


def simulate_lift(scenario: LiftScenario) -> LiftTrace:
    """Run the lift at the rated tendon speed until theta reaches the target
    or t_max expires (timeout keeps the partial trace).

    Each step is the step law's. Once a step leaves omega unchanged, as
    every step does once omega lands on the speed cap, the following steps
    run in numpy (_ride_speed_cap) until one would change omega or end the
    lift; the scalar loop takes that step. A run that would carry theta
    past the float range, and every step of a lift whose max_torque is 0,
    stay in the scalar loop. The trace has the bits of the scalar loop
    alone.
    """
    s = scenario
    direction = math.copysign(1.0, s.theta_target - s.theta_start)
    n_max = int(math.ceil(s.t_max / s.dt))

    # 8 bytes a step each, read back by np.frombuffer without a copy
    columns = th_col, om_col, tau_col, tg_col = tuple(array("d")
                                                      for _ in range(4))

    tendon_speed = direction * s.rated_tendon_speed
    step = _step_law(s, tendon_speed)
    step_each = _step_law(s, tendon_speed, _cos_each, np.maximum, np.minimum)
    rides = s.max_torque != 0  # at 0 Nm, np.maximum and max differ on -0.0
    theta, omega = s.theta_start, 0.0
    time_to_target: Optional[float] = None
    i = 0
    while i <= n_max:
        t = i * s.dt  # not a running sum, which drifts from i*dt
        tau_g, tau, theta_next, omega_next = step(theta, omega)
        th_col.append(theta)
        om_col.append(omega)
        tau_col.append(tau)
        tg_col.append(tau_g)
        if direction * (theta - s.theta_target) >= 0.0:
            time_to_target = t
            break
        if t >= s.t_max:
            break
        steady = omega_next == omega
        theta, omega = theta_next, omega_next
        i += 1
        if not (math.isfinite(theta) and math.isfinite(omega)):
            raise ValueError(f"non-finite state at t={i * s.dt:g} s; "
                             f"integration fault")
        if steady and rides:
            i, theta = _ride_speed_cap(s, step_each, direction, i, n_max,
                                       theta, omega, columns)

    th_arr, om_arr, tau_arr, tg_arr = map(np.frombuffer, columns)
    power = tau_arr * om_arr
    return LiftTrace(
        t=np.arange(len(th_arr)) * s.dt, theta=th_arr, omega=om_arr,
        tau=tau_arr, tau_gravity=tg_arr, power=power,
        peak_power=float(power.max()),
        peak_torque=float(np.abs(tau_arr).max()),
        time_to_target=time_to_target)
