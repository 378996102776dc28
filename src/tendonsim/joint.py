"""Antagonistic actuator pair driving a tendon joint: statics and limits.

Two identical series-elastic actuators pull on a joint pulley of moment arm
R from opposite sides. Both are pre-tensioned by contracting each tendon a
displacement d_s. Rotating the joint passively by delta loads one actuator
by delta*R and unloads the other by the same amount, so the restoring force
felt at the tendon is

    F_e = f_d(d_s + delta*R) - f_d(d_s - delta*R) + mu_s * F_tj        (*)

with f_d the actuator force/displacement map (zero on slack, d < 0), F_tj
the pre-tension force f_d(d_s), and mu_s a static joint friction
coefficient. Equation (*) is the single computation path for every
pre-tension regime; the per-stage closed forms are used as verification
oracles in the test suite only.

Five regimes (stages) of d_s for a passive deflection delta:

    S1  d_s <= delta*R            opposing tendon goes slack
    S2  d_s <= d_m - delta*R      both elements inside travel: stiffness is
                                  controllable through d_s
    S3  d_s <= d_m                loaded element is driven to its limit
    S4  d_s <= d_m + delta*R      pre-tension itself is past the limit
    S5  otherwise                 both sides on tendon-only stretch

where d_m is the actuator displacement limit including tendon stretch
(d_max_total) and ties go to the lower-numbered stage.

pretension_force, external_force, joint_stiffness, joint_torque,
max_controllable_torque and max_allowable_acceleration take d_s (and d_t,
and the deflection delta of external_force) as floats or as arrays that
broadcast together; a float argument gives a float result.

Units: millimeters and newtons internally; SI conversions (m, Nm, rad/s^2)
happen only at the acceleration interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .elastic import ActuatorModel, force_from_displacement

__all__ = [
    "AntagonisticJointConfig",
    "StageLabel",
    "StiffnessRange",
    "pretension_force",
    "stage_boundaries",
    "classify_stage",
    "external_force",
    "joint_stiffness",
    "controllable_stiffness_range",
    "max_allowable_acceleration",
    "joint_torque",
    "max_controllable_torque",
    "absolute_max_torque",
]

MM_PER_M = 1000.0


class StageLabel(Enum):
    S1_OPPOSING_SLACK = "S1_OpposingSlack"
    S2_CONTROLLABLE = "S2_Controllable"
    S3_DRIVING_AT_LIMIT = "S3_DrivingAtLimit"
    S4_PRETENSION_PAST_LIMIT = "S4_PretensionPastLimit"
    S5_TENDON_ONLY = "S5_TendonOnly"


def _actuators_match(a: ActuatorModel, b: ActuatorModel) -> bool:
    # labels are free-form names, not parameters
    return (a.element == b.element and a.k_t == b.k_t
            and a.rated_force == b.rated_force
            and a.rated_speed == b.rated_speed)


def _require_nonnegative(name: str, value) -> None:
    v = np.asarray(value)
    neg = v < 0
    if neg.any():
        raise ValueError(f"{name} must be >= 0, got {v[neg].flat[0]}")


@dataclass(frozen=True)
class AntagonisticJointConfig:
    """Two identical actuators on a joint of moment arm R.

    Fields:
        actuator_1, actuator_2: the pair; parameters must match (the
            five-stage algebra assumes a symmetric pair).
        R: joint moment arm (mm).
        mu_s: static joint friction coefficient, 0 <= mu_s < 1.
        inertia_I: joint rotational inertia (kg*m^2).
    """

    actuator_1: ActuatorModel
    actuator_2: ActuatorModel
    R: float
    mu_s: float
    inertia_I: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 0):
            raise ValueError(f"R must be positive, got {self.R}")
        if not (0.0 <= self.mu_s < 1.0):
            raise ValueError(f"mu_s must satisfy 0 <= mu_s < 1, got {self.mu_s}")
        if not (math.isfinite(self.inertia_I) and self.inertia_I > 0):
            raise ValueError(f"inertia_I must be positive, got {self.inertia_I}")
        if not _actuators_match(self.actuator_1, self.actuator_2):
            raise ValueError("actuator_1 and actuator_2 must share identical "
                             "parameters; the stage algebra assumes a "
                             "symmetric pair")

    @property
    def d_m(self) -> float:
        """Displacement limit of either actuator incl. tendon stretch (mm)."""
        return self.actuator_1.d_max_total

    def f_d(self, d):
        """Pair-shared force/displacement map with the slack clamp."""
        return force_from_displacement(self.actuator_1, d)


class StiffnessRange(NamedTuple):
    K_smin: float   # Nmm/rad
    K_smax: float   # Nmm/rad
    delta_K: float  # Nmm/rad


def pretension_force(joint: AntagonisticJointConfig, d_s):
    """Tension F_tj (N) on both actuators at pre-tension d_s (mm)."""
    _require_nonnegative("d_s", d_s)
    return joint.f_d(d_s)


def stage_boundaries(joint: AntagonisticJointConfig, delta: float):
    """The four stage boundaries in d_s (mm) for deflection delta (rad):
    (delta*R, d_m - delta*R, d_m, d_m + delta*R)."""
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    dR = delta * joint.R
    d_m = joint.d_m
    return (dR, d_m - dR, d_m, d_m + dR)


def classify_stage(joint: AntagonisticJointConfig, d_s: float,
                   delta: float) -> StageLabel:
    """Stage of pre-tension d_s under passive deflection delta.

    Boundaries are assigned to the lower-numbered stage.
    """
    if d_s < 0:
        raise ValueError(f"d_s must be >= 0, got {d_s}")
    b1, b2, b3, b4 = stage_boundaries(joint, delta)
    if d_s <= b1:
        return StageLabel.S1_OPPOSING_SLACK
    if d_s <= b2:
        return StageLabel.S2_CONTROLLABLE
    if d_s <= b3:
        return StageLabel.S3_DRIVING_AT_LIMIT
    if d_s <= b4:
        return StageLabel.S4_PRETENSION_PAST_LIMIT
    return StageLabel.S5_TENDON_ONLY


def external_force(joint: AntagonisticJointConfig, delta, d_s):
    """Restoring tendon force F_e (N) against a passive deflection delta
    (rad) at pre-tension d_s (mm). Single computation path for all stages.
    """
    d = np.asarray(delta)
    if (d <= 0).any():
        raise ValueError(f"delta must be > 0, got {d[d <= 0].flat[0]}")
    _require_nonnegative("d_s", d_s)
    dR = delta * joint.R
    return (joint.f_d(d_s + dR) - joint.f_d(d_s - dR)
            + joint.mu_s * joint.f_d(d_s))


def joint_stiffness(joint: AntagonisticJointConfig, delta: float, d_s):
    """Joint stiffness K_s = F_e*R/delta (Nmm/rad)."""
    return external_force(joint, delta, d_s) * joint.R / delta


def controllable_stiffness_range(joint: AntagonisticJointConfig,
                                 delta: float) -> StiffnessRange:
    """Stiffness range reachable by varying pre-tension, at test deflection
    delta (rad). Returns (K_smin, K_smax, delta_K) in Nmm/rad.

    K_smin is taken at the smallest pre-tension that keeps the opposing
    tendon taut through the deflection (d_s = delta*R). K_smax is taken at
    d_s = d_m/2, the largest pre-tension whose full slack-free deflection
    range (rotations up to d_s/R) still keeps the loaded element inside its
    travel; past it the element saturates before the opposing tendon goes
    slack and pre-tension stops buying controllable stiffness.
    """
    dR = delta * joint.R
    d_m = joint.d_m
    if not dR < d_m - dR:
        raise ValueError(f"delta={delta} rad is too large for this actuator: "
                         f"the controllable stage is empty "
                         f"(delta*R={dR} mm, d_m={d_m} mm)")
    k_min = joint_stiffness(joint, delta, dR)
    k_max = joint_stiffness(joint, delta, d_m / 2.0)
    return StiffnessRange(k_min, k_max, k_max - k_min)


def max_allowable_acceleration(joint: AntagonisticJointConfig, d_s):
    """Largest joint acceleration (rad/s^2) that keeps both tendons taut.

    The joint may rotate by at most d_s/R before the trailing tendon goes
    slack, so the available restoring force is F_e(d_s/R, d_s) and the
    acceleration bound is F_e*R/I (R converted to meters). Valid while the
    elastic element operates, 0 < d_s <= d_m; d_s = 0 returns 0 (any
    acceleration slackens a tendon), and so does a d_s so small that the
    rotation d_s/R underflows to 0. d_s is a float or an array.
    """
    _require_nonnegative("d_s", d_s)
    d = np.asarray(d_s)
    if (d > joint.d_m).any():
        raise ValueError(f"d_s={d[d > joint.d_m].flat[0]} mm is past the "
                         f"elastic stage (d_m={joint.d_m} mm); the "
                         f"slack-avoidance bound is not defined there")
    delta = d / joint.R
    taut = delta != 0
    acc = np.zeros(d.shape)
    acc[taut] = (external_force(joint, delta[taut], d[taut])
                 * (joint.R / MM_PER_M) / joint.inertia_I)
    return acc if acc.ndim else float(acc)


def joint_torque(joint: AntagonisticJointConfig, d_s, d_t):
    """Joint output torque (Nmm) for torque displacement d_t at pre-tension
    d_s: one tendon contracts by d_t, the other pays out by d_t.

    tau = [f_d(d_s + d_t) - f_d(d_s - d_t) - mu_s*f_d(d_s)] * R, clamped at
    0 since static friction cannot drive the joint.
    """
    _require_nonnegative("d_s", d_s)
    _require_nonnegative("d_t", d_t)
    raw = (joint.f_d(d_s + d_t) - joint.f_d(d_s - d_t)
           - joint.mu_s * joint.f_d(d_s)) * joint.R
    tau = np.maximum(raw, 0.0)
    return tau if tau.ndim else float(tau)


def max_controllable_torque(joint: AntagonisticJointConfig, d_s):
    """Largest torque (Nmm) reachable without driving the loaded element
    past its limit: d_t = d_m - d_s. Nonincreasing in d_s."""
    _require_nonnegative("d_s", d_s)
    d = np.asarray(d_s)
    if (d > joint.d_m).any():
        raise ValueError(f"d_s={d[d > joint.d_m].flat[0]} mm is past the "
                         f"elastic stage (d_m={joint.d_m} mm)")
    return joint_torque(joint, d_s, joint.d_m - d_s)


def absolute_max_torque(joint: AntagonisticJointConfig) -> float:
    """Torque ceiling R*F_tm (Nmm), reached when the driving tendon carries
    the element limit force and the other is slack."""
    return joint.R * joint.actuator_1.F_tm
