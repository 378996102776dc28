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

from . import dynamics, elastic, joint, kinematics
# the package exports each module's __all__
from .dynamics import *
from .elastic import *
from .joint import *
from .kinematics import *

__version__ = "0.1.0"

__all__ = ["__version__", *elastic.__all__, *joint.__all__,
           *kinematics.__all__, *dynamics.__all__]
