"""Simulation of tendon-driven compliant actuators and antagonistic joints.

The package models series-elastic tendon actuators (piecewise force to
displacement maps with a travel limit), antagonistic joint pairs built
from them (stiffness stages, slack-avoidance acceleration bound, torque
control), the D-H kinematics of a seven-joint arm with Monte Carlo
workspace sampling, and a saturating single-joint lift simulation.

Forces are in N and displacements in mm throughout the actuator and
joint layers; the kinematics and dynamics layers use SI units (m, s,
rad, W) at their interfaces.
"""

from .elastic import (ActuatorModel, ElasticElementSpec, ElementKind,
                      displacement_from_force, effective_stiffness,
                      force_from_displacement)
from .joint import (AntagonisticJointConfig, StageLabel, StiffnessRange,
                    absolute_max_torque, classify_stage,
                    controllable_stiffness_range, external_force,
                    joint_stiffness, joint_torque, max_allowable_acceleration,
                    max_controllable_torque, pretension_force,
                    stage_boundaries)
from .kinematics import (DHRow, FKResult, KinematicChain, RomError,
                         WorkspaceCloud, default_arm, dh_transform,
                         forward_kinematics, full_extension_joint_values,
                         sample_workspace)
from .dynamics import (LiftScenario, LiftState, LiftTrace, mechanical_power,
                       simulate_lift, step_dynamics)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # elastic
    "ActuatorModel", "ElasticElementSpec", "ElementKind",
    "displacement_from_force", "effective_stiffness",
    "force_from_displacement",
    # joint
    "AntagonisticJointConfig", "StageLabel", "StiffnessRange",
    "absolute_max_torque", "classify_stage", "controllable_stiffness_range",
    "external_force", "joint_stiffness", "joint_torque",
    "max_allowable_acceleration", "max_controllable_torque",
    "pretension_force", "stage_boundaries",
    # kinematics
    "DHRow", "FKResult", "KinematicChain", "RomError", "WorkspaceCloud",
    "default_arm", "dh_transform", "forward_kinematics",
    "full_extension_joint_values", "sample_workspace",
    # dynamics
    "LiftScenario", "LiftState", "LiftTrace", "mechanical_power",
    "simulate_lift", "step_dynamics",
]
