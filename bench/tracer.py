"""Per-layer counts and perf_counter spans, recorded from outside tendonsim.

A Tracer replaces the public functions of each layer in the namespaces that
call them (``tendonsim.cli.*``, ``tendonsim.joint.force_from_displacement``,
``tendonsim.elastic.displacement_from_force``) with wrappers, and puts the
originals back when its ``installed`` block ends. Untraced runs never enter
that block, so end-to-end numbers are taken with no wrapper in place.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

# joint-layer operations as cli looks them up; each is one joint span
JOINT_OPS = ("absolute_max_torque", "classify_stage",
             "controllable_stiffness_range", "external_force",
             "joint_stiffness", "joint_torque", "max_allowable_acceleration",
             "max_controllable_torque", "stage_boundaries")


class Tracer:
    """Counters and summed spans of one pass; reset before each pass."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.force_calls = 0
        self.force_s = 0.0
        self.force_in_joint_s = 0.0
        self.forward_calls = 0
        self.joint_calls = 0
        self.joint_s = 0.0
        self.workspace_s = 0.0
        self.samples = 0
        self.alloc_peak_bytes = 0
        self.lift_s = 0.0
        self.steps = 0
        self.validate_s = 0.0
        self._in_joint = False

    def model_s(self) -> float:
        """Time inside model layers; elastic spans nested in joint spans
        count once."""
        return (self.joint_s + self.force_s - self.force_in_joint_s
                + self.workspace_s + self.lift_s)

    # -- wrappers ----------------------------------------------------------

    def _force(self, fn):
        def force_from_displacement(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.force_calls += 1
                self.force_s += dt
                if self._in_joint:
                    self.force_in_joint_s += dt
        return force_from_displacement

    def _forward(self, fn):
        def displacement_from_force(*args, **kwargs):
            self.forward_calls += 1
            return fn(*args, **kwargs)
        return displacement_from_force

    def _joint(self, fn):
        def joint_op(*args, **kwargs):
            self._in_joint = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.joint_s += time.perf_counter() - t0
                self.joint_calls += 1
                self._in_joint = False
        return joint_op

    def _workspace(self, fn):
        def sample_workspace(chain, n, seed):
            tracemalloc.start()
            t0 = time.perf_counter()
            try:
                return fn(chain, n, seed)
            finally:
                self.workspace_s += time.perf_counter() - t0
                self.alloc_peak_bytes = max(self.alloc_peak_bytes,
                                            tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
                self.samples += n
        return sample_workspace

    def _lift(self, fn):
        def simulate_lift(scenario):
            t0 = time.perf_counter()
            trace = fn(scenario)
            self.lift_s += time.perf_counter() - t0
            self.steps += len(trace.t)
            return trace
        return simulate_lift

    def _validate(self, fn):
        def validate_csv_schema(path):
            t0 = time.perf_counter()
            try:
                return fn(path)
            finally:
                self.validate_s += time.perf_counter() - t0
        return validate_csv_schema

    @contextmanager
    def installed(self, cli, joint, elastic):
        """Patch the layer boundaries for the duration of the block."""
        patches = [
            (joint, "force_from_displacement", self._force),
            (cli, "force_from_displacement", self._force),
            (elastic, "displacement_from_force", self._forward),
            (cli, "sample_workspace", self._workspace),
            (cli, "simulate_lift", self._lift),
            (cli, "validate_csv_schema", self._validate),
        ] + [(cli, name, self._joint) for name in JOINT_OPS]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        try:
            for mod, name, wrap in patches:
                setattr(mod, name, wrap(getattr(mod, name)))
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)
