"""D-H kinematics of the 7-revolute-joint arm and workspace sampling.

The chain is described with the standard (distal) Denavit-Hartenberg
convention: the transform of row i with joint angle theta is

    [[ctheta, -stheta*calpha,  stheta*salpha, a*ctheta],
     [stheta,  ctheta*calpha, -ctheta*salpha, a*stheta],
     [     0,         salpha,         calpha,        d],
     [     0,              0,              0,        1]]

Each row maps a named joint variable q to theta = theta_offset +
joint_sign*q, which covers expressions like theta = pi/2 - q or
theta = -pi/2 - q directly.

The default arm has three shoulder axes (theta_31, theta_32, theta_33), two
elbow/forearm axes (theta_21, theta_22) and two wrist axes (theta_11,
theta_12), with link offsets b (upper arm), c (forearm) and d (hand), all in
meters. Shoulder and elbow range-of-motion defaults are anatomical values;
no source figures exist for the two wrist axes, so generous symmetric
defaults are used there (see DEFAULT_ROM_DEG).

At q = full_extension_joint_values() the three link offsets are collinear
and the reach is exactly b + c + d; the elbow (theta_21 = 0) and the first
wrist axis (theta_11 = +pi/2) pin the pose, the other five joints do not
affect reach there.

alpha is exactly 0 or +-pi/2 (DHRow snaps it), so a row's product with the
running transform has a closed form: the new x axis is x*ctheta +
y*stheta, the other two axes are the old z and +-(y*ctheta - x*stheta),
and the origin moves by a along the new x and d along the old z. The FK
applies that step to the upper 3x4 of the transforms, as four (3, n)
column arrays, with elementwise numpy ops that round once apiece, so the
bits depend on neither the BLAS nor the SIMD level.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

__all__ = [
    "DHRow",
    "KinematicChain",
    "WorkspaceCloud",
    "FKResult",
    "RomError",
    "JOINT_ORDER",
    "DEFAULT_ROM_DEG",
    "dh_transform",
    "forward_kinematics",
    "full_extension_joint_values",
    "default_arm",
    "sample_workspace",
]

JOINT_ORDER = ("theta_31", "theta_32", "theta_33", "theta_21", "theta_22",
               "theta_11", "theta_12")

# degrees; shoulder/elbow from anatomical tables, wrist chosen (no source)
DEFAULT_ROM_DEG: Dict[str, Tuple[float, float]] = {
    "theta_31": (-40.0, 65.0),
    "theta_32": (-32.0, 104.0),
    "theta_33": (-90.0, 40.0),
    "theta_21": (0.0, 138.0),
    "theta_22": (-60.0, 65.0),
    "theta_11": (-90.0, 90.0),
    "theta_12": (-60.0, 60.0),
}

_HALF_PI = math.pi / 2.0

# poses in flight across the FK workers, each of which runs slices of
# FK_CHUNK // 2 poses whatever the worker count. A slice's (3, n) frame
# columns stay in cache, where whole-cloud ones would stream through
# memory. Each of the ~120 numpy calls of a slice releases the GIL and
# takes it back, so two workers on smaller slices would wait on each other
# more often for the same poses
FK_CHUNK = 8192

# the identity frame: the x, y, z axes and origin as (3, 1) columns, which
# broadcast against the first row's (n,) joint values
_IDENTITY = tuple(np.eye(3, 4)[:, j:j + 1] for j in range(4))


class RomError(ValueError):
    """A joint value violates its range of motion."""


@dataclass(frozen=True)
class DHRow:
    """One standard D-H row; theta = theta_offset + joint_sign*q.

    a and d in meters, alpha and theta_offset in radians. alpha is 0 or
    +-pi/2 for this family of chains; a value within 1e-12 of one is
    stored as exactly that one, the alpha the FK computes with. joint_sign
    is +1 or -1.
    """

    a: float
    d: float
    alpha: float
    theta_offset: float
    joint_sign: int
    joint_name: str

    def __post_init__(self) -> None:
        for field in ("a", "d", "alpha", "theta_offset"):
            v = getattr(self, field)
            if not math.isfinite(v):
                raise ValueError(f"{field} must be finite, got {v}")
        near = [v for v in (0.0, _HALF_PI, -_HALF_PI)
                if abs(self.alpha - v) <= 1e-12]
        if not near:
            raise ValueError(f"alpha must be 0 or +-pi/2, got {self.alpha}")
        object.__setattr__(self, "alpha", near[0])
        if self.joint_sign not in (+1, -1):
            raise ValueError(f"joint_sign must be +1 or -1, got {self.joint_sign}")
        if not self.joint_name:
            raise ValueError("joint_name must be nonempty")


@dataclass(frozen=True)
class KinematicChain:
    """Ordered D-H rows, named link lengths and per-joint ROM intervals.

    link_lengths holds the named offsets (b, c, d) in meters; rom maps each
    joint name to a closed (lo, hi) interval in radians.
    """

    rows: Tuple[DHRow, ...]
    link_lengths: Mapping[str, float]
    rom: Mapping[str, Tuple[float, float]]

    def __post_init__(self) -> None:
        if len(self.rows) != 7:
            raise ValueError(f"chain must have exactly 7 rows, got {len(self.rows)}")
        unknown = sorted(set(self.rom) - set(self.joint_names), key=str)
        if unknown:
            raise ValueError(f"ROM intervals for unknown joints {unknown}; "
                             f"the joints are {', '.join(self.joint_names)}")
        for row in self.rows:
            if row.joint_name not in self.rom:
                raise ValueError(f"no ROM interval for joint '{row.joint_name}'")
            lo, hi = self.rom[row.joint_name]
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"ROM interval for '{row.joint_name}' must "
                                 f"be finite, got ({lo}, {hi})")
            if not lo <= hi:
                raise ValueError(f"empty ROM interval for '{row.joint_name}': "
                                 f"({lo}, {hi})")
        # the norm of a position squares its coordinates, each up to the reach
        reach = self.reach_limit
        if not math.isfinite(3.0 * reach * reach):
            raise ValueError(f"link lengths give a reach limit of {reach:g} "
                             f"m, too large for the norm of a position to "
                             f"stay finite")

    @property
    def joint_names(self) -> Tuple[str, ...]:
        return tuple(row.joint_name for row in self.rows)

    @property
    def reach_limit(self) -> float:
        """Upper bound on end-effector distance: sum of |a| + |d| (m)."""
        return float(sum(abs(r.a) + abs(r.d) for r in self.rows))


@dataclass(frozen=True)
class FKResult:
    position: np.ndarray    # (3,) m
    rotation: np.ndarray    # (3, 3)
    transform: np.ndarray   # (4, 4)


@dataclass(frozen=True)
class WorkspaceCloud:
    """Monte Carlo workspace sample: end-effector points and summary stats."""

    points: np.ndarray      # (n, 3) m
    stats: Dict[str, object]


def dh_transform(row: DHRow, joint_value: float) -> np.ndarray:
    """4x4 homogeneous transform of one D-H row at the given joint value."""
    if not math.isfinite(joint_value):
        raise ValueError(f"joint value must be finite, got {joint_value}")
    return _transform(_dh_step(row, np.array([joint_value]), *_IDENTITY))


def _as_named(chain: KinematicChain,
              joint_values: Union[Mapping[str, float], Sequence[float]],
              ) -> Dict[str, float]:
    names = chain.joint_names
    if isinstance(joint_values, Mapping):
        missing = [n for n in names if n not in joint_values]
        if missing:
            raise ValueError(f"missing joint values for {missing}")
        return {n: float(joint_values[n]) for n in names}
    vals = list(joint_values)
    if len(vals) != len(names):
        raise ValueError(f"expected {len(names)} joint values, got {len(vals)}")
    return dict(zip(names, map(float, vals)))


def forward_kinematics(chain: KinematicChain,
                       joint_values: Union[Mapping[str, float], Sequence[float]],
                       mode: str = "strict") -> FKResult:
    """Compose the 7 row transforms at the given joint values.

    joint_values is a mapping by joint name or a sequence in row order.
    mode:
        "strict" - raise RomError naming the joint when a value is outside
                   its closed ROM interval (the default),
        "clamp"  - clip values into the interval instead.
    """
    if mode not in ("strict", "clamp"):
        raise ValueError(f"mode must be 'strict' or 'clamp', got {mode!r}")
    values = _as_named(chain, joint_values)
    for name, v in values.items():
        lo, hi = chain.rom[name]
        if mode == "clamp":
            values[name] = v = min(max(v, lo), hi)
        if not lo <= v <= hi:   # after clamping, only a NaN
            raise RomError(f"joint '{name}' = {v:.6f} rad is outside its "
                           f"ROM [{lo:.6f}, {hi:.6f}] rad")
    T = _transform(_fk_frame(chain, np.array([[values[row.joint_name]]
                                              for row in chain.rows])))
    return FKResult(position=T[:3, 3].copy(), rotation=T[:3, :3].copy(),
                    transform=T)


def full_extension_joint_values() -> Dict[str, float]:
    """The canonical fully extended pose: reach equals b + c + d exactly."""
    values = {name: 0.0 for name in JOINT_ORDER}
    values["theta_11"] = _HALF_PI
    return values


def default_arm(b: float = 0.30, c: float = 0.25, d: float = 0.08,
                rom_deg: Optional[Mapping[str, Tuple[float, float]]] = None,
                ) -> KinematicChain:
    """The 7-joint arm: 3 shoulder + 2 elbow/forearm + 2 wrist axes.

    b, c, d are the upper-arm, forearm and hand link offsets in meters.
    rom_deg optionally overrides the default ROM table (degrees).
    """
    for name, v in (("b", b), ("c", c), ("d", d)):
        if not 0 < v < math.inf:
            raise ValueError(f"link length {name} must be positive and "
                             f"finite, got {v}")
    rows = (
        DHRow(0.0, 0.0, _HALF_PI, 0.0, +1, "theta_31"),
        DHRow(0.0, 0.0, -_HALF_PI, _HALF_PI, -1, "theta_32"),
        DHRow(0.0, b, _HALF_PI, _HALF_PI, +1, "theta_33"),
        DHRow(0.0, 0.0, -_HALF_PI, 0.0, +1, "theta_21"),
        DHRow(0.0, c, -_HALF_PI, math.pi, +1, "theta_22"),
        DHRow(0.0, 0.0, -_HALF_PI, -_HALF_PI, -1, "theta_11"),
        DHRow(0.0, d, _HALF_PI, 0.0, +1, "theta_12"),
    )
    table = dict(DEFAULT_ROM_DEG if rom_deg is None else rom_deg)
    rom = {name: (math.radians(lo), math.radians(hi))
           for name, (lo, hi) in table.items()}
    return KinematicChain(rows=rows, link_lengths={"b": b, "c": c, "d": d},
                          rom=rom)


def _dh_step(row: DHRow, q: np.ndarray, x: np.ndarray, y: np.ndarray,
             z: np.ndarray, p: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The frames (x, y, z, p), each axis and the origin as (3, n) columns
    of the upper 3x4 of n transforms, times the row's transforms at the
    joint values q (n,)."""
    theta = row.theta_offset + row.joint_sign * q
    ct, st = np.cos(theta), np.sin(theta)
    c0 = x * ct + y * st
    if row.alpha == 0.0:
        c1, c2 = y * ct - x * st, z
    elif row.alpha > 0.0:
        c1, c2 = z, x * st - y * ct
    else:
        c1, c2 = -z, y * ct - x * st
    return c0, c1, c2, p + row.a * c0 + row.d * z


def _fk_frame(chain: KinematicChain,
              joints: Iterable[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """End-effector frames (x, y, z, p), as in _dh_step, for the 7 joint
    columns (n,) in row order: the one D-H path of forward_kinematics and
    sample_workspace. joints is any iterable of the columns, such as
    samples.T of an (n, 7) array; each is taken only as its row needs it."""
    frame = _IDENTITY
    for row, q in zip(chain.rows, joints):
        frame = _dh_step(row, q, *frame)
    return frame


def _transform(frame: Tuple[np.ndarray, ...]) -> np.ndarray:
    """The 4x4 homogeneous transform of a one-pose frame."""
    T = np.eye(4)
    T[:3] = np.hstack(frame)
    return T


def _sample_slices(chain: KinematicChain, points: np.ndarray, first: int,
                   step: int, size: int, draws: list) -> float:
    """Draw and run FK on slices first, first + step, ... of the points,
    each of size poses, into those rows of points; return the largest
    norm among them. draws holds each joint's generator, at the first
    slice's place in the stream, and its ROM bounds; each joint's column
    is drawn as FK reaches its row."""
    def columns(m: int) -> Iterator[np.ndarray]:
        for rng, lo, hi in draws:
            q = rng.uniform(lo, hi, m)
            rng.bit_generator.advance((step - 1) * size)
            yield q

    max_reach = 0.0
    for i in range(first * size, len(points), step * size):
        m = min(size, len(points) - i)
        points[i:i + m] = _fk_frame(chain, columns(m))[3].T
        max_reach = max(max_reach,
                        float(np.linalg.norm(points[i:i + m], axis=1).max()))
    return max_reach


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sample_workspace(chain: KinematicChain, n: int, seed: int) -> WorkspaceCloud:
    """Monte Carlo workspace estimate: n independent uniform joint samples.

    Each joint variable is drawn uniformly over its ROM interval from
    numpy's default_rng(seed), joint by joint in row order: in that stream,
    draw k (from 0) of joint j is output j*n + k, as if each joint's n
    draws were taken in one uniform(lo, hi, n) call after the previous
    joint's. Results are deterministic in (chain, n, seed).

    Sampling and FK run over slices of FK_CHUNK // 2 poses, on up to two
    workers: the calling thread and, when n spans more than one FK_CHUNK
    and a second CPU is free to the process, one more thread, each taking
    every other slice. A slice draws each joint's column as FK reaches its
    row. Each joint's generator starts at its slice's place in the stream
    (PCG64 advanced by j*n outputs plus the slice's start, one output per
    double), and each pose is computed alone, so neither the slicing nor
    the worker count changes a bit of the result. Memory is the (n, 3)
    points, 24 bytes per sample, plus the frames and temporaries of one
    slice per worker: about a dozen (3, FK_CHUNK // 2) arrays, 1.1 MB.
    Every thread is joined before the call returns or raises.
    The bbox is taken one coordinate column at a time, which is faster
    than the axis-0 reduction over rows and, min and max being exact,
    gives the same bits.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    workers = min(2, _cpus(), -(-n // FK_CHUNK))
    size = min(n, FK_CHUNK // 2)
    # every generator is made here, before any worker starts: the first
    # generator of a process imports numpy.random, and a thread that did
    # would grow its own malloc arena with the import
    draws = [[(np.random.Generator(np.random.PCG64(seed).advance(
                  j * n + w * size)), *chain.rom[row.joint_name])
              for j, row in enumerate(chain.rows)]
             for w in range(workers)]
    points = np.empty((n, 3))
    reach = [0.0] * workers
    errors = []

    def work(w: int) -> None:
        try:
            reach[w] = _sample_slices(chain, points, w, workers, size,
                                      draws[w])
        except BaseException as exc:    # raised once every worker is done
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,))
               for w in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    max_reach = max(reach)
    # FK rounds each coordinate to a few ulps of the reach, so the slack
    # scales with it
    if max_reach > chain.reach_limit * (1 + 1e-12) + 1e-9:
        raise AssertionError(f"max reach {max_reach} exceeds the chain's "
                             f"geometric limit {chain.reach_limit}")
    stats = {
        "max_reach_m": max_reach,
        "bbox_min_m": [float(col.min()) for col in points.T],
        "bbox_max_m": [float(col.max()) for col in points.T],
        "centroid_m": [float(v) for v in points.mean(axis=0)],
    }
    points.flags.writeable = False
    return WorkspaceCloud(points=points, stats=stats)
