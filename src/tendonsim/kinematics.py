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

A backward pass over the rows (_liveness) marks which of those columns
each row must produce for the ones wanted after the last row, and which
rows need their joint value at all; the step computes only those. A
transform wants all four. A Workspace point wants only the origin: on the
default arm every a is 0, so the last wrist joint (theta_12) cannot move
it and is never drawn, and the row before it turns only its z axis. The
first rows still need every column, so a Workspace slice of FK_CHUNK // 2
poses peaks there, at about 27 doubles a pose under tracemalloc (0.89 MB):
each step is handed the only reference to its frame and frees the old x
and y axes once the new axes that mix them are formed.
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
# memory. Each of the ~75 numpy calls of a Workspace slice releases the GIL
# and takes it back, so two workers on smaller slices would wait on each
# other more often for the same poses
FK_CHUNK = 8192

# the identity frame: the x, y, z axes and origin as (3, 1) columns, which
# broadcast against the first row's (n,) joint values
_IDENTITY = tuple(np.eye(3, 4)[:, j:j + 1] for j in range(4))

# the frame columns (x, y, z, p) wanted after the last row: all of them for
# a transform, only the origin for a Workspace point
_ALL = (True, True, True, True)
_POSITION = (False, False, False, True)


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
    """Ordered D-H rows and per-joint ROM intervals: rom maps each joint
    name to a closed (lo, hi) interval in radians.
    """

    rows: Tuple[DHRow, ...]
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
class WorkspaceCloud:
    """Monte Carlo workspace sample: end-effector points and summary stats."""

    points: np.ndarray      # (n, 3) m
    stats: Dict[str, object]


def dh_transform(row: DHRow, joint_value: float) -> np.ndarray:
    """4x4 homogeneous transform of one D-H row at the given joint value."""
    if not math.isfinite(joint_value):
        raise ValueError(f"joint value must be finite, got {joint_value}")
    return _transform(_dh_step(row, _liveness((row,), _ALL)[0],
                               np.array([joint_value]), list(_IDENTITY)))


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
                       ) -> np.ndarray:
    """The 4x4 homogeneous end-effector transform: the 7 row transforms
    composed at the given joint values.

    joint_values is a mapping by joint name or a sequence in row order.
    Raises RomError naming the joint when a value is outside its closed
    ROM interval or is not a number.
    """
    values = _as_named(chain, joint_values)
    for name, v in values.items():
        lo, hi = chain.rom[name]
        if not lo <= v <= hi:   # a NaN fails both comparisons
            raise RomError(f"joint '{name}' = {v:.6f} rad is outside its "
                           f"ROM [{lo:.6f}, {hi:.6f}] rad")
    return _transform(_fk_frame(chain, np.array([[values[row.joint_name]]
                                                 for row in chain.rows])))


def full_extension_joint_values() -> Dict[str, float]:
    """The canonical fully extended pose: reach equals b + c + d exactly."""
    values = {name: 0.0 for name in JOINT_ORDER}
    values["theta_11"] = _HALF_PI
    return values


def default_arm(b: float = 0.30, c: float = 0.25,
                d: float = 0.08) -> KinematicChain:
    """The 7-joint arm: 3 shoulder + 2 elbow/forearm + 2 wrist axes, with
    the ROM of DEFAULT_ROM_DEG.

    b, c, d are the upper-arm, forearm and hand link offsets in meters.
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
    rom = {name: (math.radians(lo), math.radians(hi))
           for name, (lo, hi) in DEFAULT_ROM_DEG.items()}
    return KinematicChain(rows=rows, rom=rom)


def _liveness(rows: Sequence[DHRow], wanted: Tuple[bool, ...]) -> list:
    """For each row, (uses_q, out): out flags which of the frame columns
    (x, y, z, p) the row must produce for the columns wanted after the
    last row, and uses_q whether those need the row's joint value. One
    backward pass over rows."""
    plan = []
    for row in reversed(rows):
        x, y, z, p = wanted
        # x', the turned axis (y' at alpha 0, else z') and a move along x'
        # mix the old x and y by theta; the other of y' and z' is +-z, and
        # p' moves by d along z
        uses_q = x or (y if row.alpha == 0.0 else z) or (p and row.a != 0.0)
        keep_z = (z if row.alpha == 0.0 else y) or (p and row.d != 0.0)
        plan.append((uses_q, wanted))
        wanted = (uses_q, uses_q, keep_z, p)
    return plan[::-1]


def _dh_step(row: DHRow, live: Tuple[bool, Tuple[bool, ...]],
             q: Optional[np.ndarray], frame: list) -> Tuple[np.ndarray, ...]:
    """The frames (x, y, z, p), each axis and the origin as (3, n) columns
    of the upper 3x4 of n transforms, times the row's transforms at the
    joint values q (n,). live is the row's (uses_q, out) of _liveness:
    only the columns out flags are computed, the others are None, and q is
    read only when uses_q is set. The step consumes frame, emptying the
    list, so the old x and y axes are freed as soon as the new axes that
    mix them are formed, before the other axis and the origin."""
    uses_q, (want_x, want_y, want_z, want_p) = live
    x, y, z, p = frame
    frame.clear()
    if uses_q:
        # offset + sign*q, as sign*q is q or -q exactly
        theta = (row.theta_offset + q if row.joint_sign > 0
                 else row.theta_offset - q)
        ct, st = np.cos(theta), np.sin(theta)
    # x' and the turned axis (y' at alpha 0, else z') mix x and y by
    # theta; each is formed in place on its first product, which rounds as
    # the two-product expression does
    c0 = turned = None
    if want_x or (want_p and row.a):
        c0 = x * ct
        c0 += y * st
    if want_y if row.alpha == 0.0 else want_z:
        if row.alpha > 0.0:
            turned = x * st
            turned -= y * ct
        else:
            turned = y * ct
            turned -= x * st
    del x, y
    if row.alpha == 0.0:
        c1, c2 = turned, z if want_z else None
    else:
        c1 = (z if row.alpha > 0.0 else -z) if want_y else None
        c2 = turned
    if want_p:
        # p starts at +0, and a sum is -0 only if every addend is, so p is
        # never -0 and adding a zero a*c0 or d*z, as skipped here, would
        # leave its bits as they are
        if row.a:
            p = p + row.a * c0
        if row.d:
            p = p + row.d * z
    return c0 if want_x else None, c1, c2, p if want_p else None


def _fk_frame(chain: KinematicChain, joints: Iterable[Optional[np.ndarray]],
              plan: Optional[list] = None) -> Tuple[np.ndarray, ...]:
    """End-effector frames (x, y, z, p), as in _dh_step, for the 7 joint
    columns (n,) in row order: the one D-H path of forward_kinematics and
    sample_workspace. joints is any iterable of the columns, such as
    samples.T of an (n, 7) array; each is taken only as its row needs it,
    and one whose row needs no joint value may be None. plan is the
    chain's _liveness, all four columns by default. Each step is handed
    the only reference to its frame, a list it empties."""
    frame = list(_IDENTITY)
    for row, live, q in zip(chain.rows,
                            plan or _liveness(chain.rows, _ALL), joints):
        frame = list(_dh_step(row, live, q, frame))
    return tuple(frame)


def _transform(frame: Tuple[np.ndarray, ...]) -> np.ndarray:
    """The 4x4 homogeneous transform of a one-pose frame."""
    T = np.eye(4)
    T[:3] = np.hstack(frame)
    return T


def _sample_slices(chain: KinematicChain, points: np.ndarray, first: int,
                   step: int, size: int, draws: list, plan: list) -> float:
    """Draw and run FK on slices first, first + step, ... of the points,
    each of size poses, into those rows of points; return the largest
    norm among them. plan is the chain's _liveness for the position. draws
    holds each joint's generator, at the first slice's place in the
    stream, and its ROM bounds, or None for a joint the position does not
    need; each joint's column is drawn as FK reaches its row."""
    def columns(m: int) -> Iterator[Optional[np.ndarray]]:
        for draw in draws:
            if draw is None:
                yield None
                continue
            rng, lo, hi = draw
            q = rng.uniform(lo, hi, m)
            rng.bit_generator.advance((step - 1) * size)
            yield q

    # the squared norm sums left to right, as np.linalg.norm(points,
    # axis=1) does, so its root is that norm's max to the bit
    max_square = 0.0
    for i in range(first * size, len(points), step * size):
        m = min(size, len(points) - i)
        p = _fk_frame(chain, columns(m), plan)[3]
        points[i:i + m] = p.T
        max_square = max(max_square,
                         float((p[0] * p[0] + p[1] * p[1]
                                + p[2] * p[2]).max()))
        del p       # before the next slice's frames
    return math.sqrt(max_square)


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
    every other slice. FK computes only the frame columns that reach the
    end-effector position, and a slice draws the column of only the
    joints those need (_liveness), each as FK reaches its row; on the
    default arm theta_12 is never drawn. Each joint's generator starts at
    its slice's place in the stream (PCG64 advanced by j*n outputs plus the
    slice's start, one output per double), and each pose is computed alone,
    so neither the slicing, the worker count nor the joints left undrawn
    change a bit of the result. Memory is the (n, 3) points, 24 bytes per
    sample, plus the frames and temporaries of one slice per worker: a
    traced peak of about nine (3, FK_CHUNK // 2) arrays, 0.89 MB, in the
    first rows, which need every column.
    Every thread is joined before the call returns or raises.
    The bbox is taken one coordinate column at a time, which is faster
    than the axis-0 reduction over rows and, min and max being exact,
    gives the same bits.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    workers = min(2, _cpus(), -(-n // FK_CHUNK))
    size = min(n, FK_CHUNK // 2)
    plan = _liveness(chain.rows, _POSITION)
    # every generator is made here, before any worker starts: the first
    # generator of a process imports numpy.random, and a thread that did
    # would grow its own malloc arena with the import
    draws = [[(np.random.Generator(np.random.PCG64(seed).advance(
                  j * n + w * size)), *chain.rom[row.joint_name])
              if uses_q else None
              for j, (row, (uses_q, _)) in enumerate(zip(chain.rows, plan))]
             for w in range(workers)]
    points = np.empty((n, 3))
    reach = [0.0] * workers
    errors = []

    def work(w: int) -> None:
        try:
            reach[w] = _sample_slices(chain, points, w, workers, size,
                                      draws[w], plan)
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
