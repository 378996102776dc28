"""Experiment orchestration and the command line.

Experiments sweep a module operation over uniform grids and write the
result as plot-ready CSV (or JSON) plus a JSON summary (see emit); stage
boundaries and other model breakpoints are merged into the grids exactly,
so kinks are never aliased by the sampling step. Outputs are
byte-identical for identical (spec, seed).

Each config type is one row of CONFIG_TYPES (section name -> parser, model
class, the `validate` description) and each experiment kind one row of
EXPERIMENTS (name, note, config section, sweep variables, runner). A new
kind is one row plus its runner, a function of the spec that returns
(header, columns, summary), reporting what the model holds; run_experiment
alone turns a model fault into an ExperimentError that names the kind. The
runners stay in this module: the benchmark's tracer patches the layer
functions they call here.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Callable, Dict, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from . import config, emit
from .config import (DATA_DIR, ENV_CONFIG_DIR, ConfigError, LoadedJoint,
                     _Section, _check_lift_steps, _is_a, _parse_actuator,
                     _parse_chain, _parse_joint, _parse_lift, _read_config,
                     _resolve, _wrong_type_file)
from .dynamics import LiftScenario, simulate_lift
from .elastic import MM_PER_M, ActuatorModel, force_from_displacement
from .emit import SchemaError, _replacing, _write_rows, validate_csv_schema
from .joint import (classify_stage, controllable_stiffness_range,
                    external_force, joint_stiffness, joint_torque,
                    max_allowable_acceleration, max_controllable_torque,
                    absolute_max_torque, stage_boundaries)
from .kinematics import KinematicChain, sample_workspace

__all__ = [
    "ConfigError",
    "ExperimentError",
    "SchemaError",
    "GridSpec",
    "ExperimentSpec",
    "LoadedJoint",
    "DATA_DIR",
    "ENV_CONFIG_DIR",
    "parse_config",
    "parse_experiment",
    "run_experiment",
    "validate_csv_schema",
    "main",
]


class ExperimentError(Exception):
    """An experiment failed: the model raised while the run evaluated it,
    or its output could not be written."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform inclusive sweep grid."""

    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.start, self.stop, self.step))):
            raise ValueError("grid start/stop/step must be finite")
        if self.step <= 0:
            raise ValueError(f"grid step must be > 0, got {self.step}")
        if self.stop < self.start:
            raise ValueError(f"grid stop {self.stop} below start {self.start}")
        if not math.isfinite((self.stop - self.start) / self.step):
            raise ValueError("grid (stop - start)/step overflows")

    def _extent(self) -> Tuple[int, bool]:
        """(n, tail): the grid is start + i*step for i = 0..n, followed by
        stop when tail is true."""
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9))
        last = self.start + n * self.step
        return n, self.stop - last > 1e-9 * max(1.0, abs(self.stop))

    def count(self) -> int:
        """Number of grid points, computed without building them."""
        n, tail = self._extent()
        return n + 1 + tail

    def points(self) -> np.ndarray:
        n, tail = self._extent()
        pts = np.arange(n + 1 + tail, dtype=float) * self.step + self.start
        if tail:
            pts[-1] = self.stop
        return pts


@dataclass(frozen=True)
class ExperimentSpec:
    experiment: _ExperimentKind        # its row of EXPERIMENTS
    model: object                      # parsed config object
    sweeps: Dict[str, GridSpec]
    output: str
    fmt: str = "csv"
    seed: Optional[int] = None
    delta: Optional[float] = None      # the spec's delta, else the joint's
    n: Optional[int] = None


def parse_experiment(path: Union[str, Path]) -> ExperimentSpec:
    """Parse an experiment spec file and the config file it names."""
    path = Path(path)
    kind, doc = _read_config(path)
    if kind != "experiment":
        raise ConfigError(path, _wrong_type_file("the file", kind,
                                                 "experiment", "run"))
    return _parse_experiment(doc, path)


def _parse_experiment(doc: dict, path: Path) -> ExperimentSpec:
    sec = _Section(doc.get("experiment"), path, "experiment")
    kind_name = sec.take_str("kind")
    kind = EXPERIMENTS.get(kind_name)
    if kind is None:
        raise sec._fail(f"unknown kind {kind_name!r}; one of "
                        f"{', '.join(EXPERIMENTS)}")
    config_path = _resolve(sec.take_str("config"), path.parent)
    model = CONFIG_TYPES[kind.config].parse(
        sec.read_config(config_path, kind.config, kind.name), config_path)

    sweeps: Dict[str, GridSpec] = {}
    sweep_raw = sec.take("sweep", required=False, default={})
    ssec = _Section(sweep_raw, path, "experiment.sweep")
    for var in kind.sweeps:
        gdata = ssec.take(var)
        gsec = _Section(gdata, path, f"experiment.sweep.{var}")
        with gsec:
            sweeps[var] = GridSpec(start=gsec.take_float("start"),
                                   stop=gsec.take_float("stop"),
                                   step=gsec.take_float("step"))
        gsec.finish()
    ssec.finish()

    output = sec.take_str("output")
    fmt = sec.take_str("format", required=False, default="csv")
    takes = dict(seed=sec.take_int, delta=sec.take_positive, n=sec.take_int)
    read = {f: takes[f](f, required=False) for f in kind.reads}
    sec.finish()    # a field the kind does not read is an unknown key
    if "delta" in read and read["delta"] is None:
        read["delta"] = model.delta
    spec = ExperimentSpec(experiment=kind, model=model, sweeps=sweeps,
                          output=output, fmt=fmt, **read)
    _check_spec(spec, sec._fail)
    return spec


def _check_spec(spec: ExperimentSpec,
                fail: Callable[[str], Exception]) -> None:
    """Raise fail(message) for the first rule of a runnable spec that spec
    breaks, the field types of a spec built in code included. The parser
    and run_experiment both check a spec by it."""
    kind, output, limit = spec.experiment, spec.output, config.MAX_RUN_POINTS
    if not isinstance(spec.model, CONFIG_TYPES[kind.config].model):
        raise fail(f"{kind.name} needs a {kind.config} config, got "
                   f"{type(spec.model).__name__}")
    # without a separator a name is never absolute; without a dot the
    # format suffix is the only one
    if (not isinstance(output, str) or not output
            or any(c in output for c in "/\\.\0")):
        raise fail(f"field 'output' must be a nonempty file name without "
                   f"'/', '\\', '.' or NUL, got {output!r}")
    if not isinstance(spec.fmt, str) or spec.fmt not in emit.FORMATS:
        raise fail(f"format must be csv or json, got {spec.fmt!r}")
    if spec.seed is not None and not _is_a(spec.seed, int):
        raise fail(f"seed must be an integer, got {spec.seed!r}")
    if "seed" in kind.reads and spec.seed is not None and spec.seed < 0:
        raise fail(f"{kind.name} needs a seed >= 0 (spec field or --seed), "
                   f"got {spec.seed}")
    # a parsed spec without a delta takes its joint's
    if (spec.delta is not None or "delta" in kind.reads) and not (
            _is_a(spec.delta, (int, float)) and 0 < spec.delta < math.inf):
        raise fail(f"delta must be a finite number > 0, got "
                   f"{reprlib.repr(spec.delta)}")
    if "n" in kind.reads and not (_is_a(spec.n, int) and 1 <= spec.n <= limit):
        raise fail(f"{kind.name} needs 1 <= n <= {limit}")
    if isinstance(spec.model, LiftScenario):
        _check_lift_steps(spec.model, fail)
    if not (isinstance(spec.sweeps, dict) and all(
            isinstance(g, GridSpec) for g in spec.sweeps.values())):
        raise fail(f"sweeps must map variables to GridSpecs, got "
                   f"{reprlib.repr(spec.sweeps)}")
    if spec.sweeps.keys() != set(kind.sweeps):
        raise fail(f"{kind.name} needs the sweeps {list(kind.sweeps)}, got "
                   f"{list(spec.sweeps)}")
    if math.prod(g.count() for g in spec.sweeps.values()) > limit:
        raise fail(f"the sweep grid has more than {limit} points")


class _ConfigType(NamedTuple):
    """A config file type, named by its one top-level section."""

    parse: Callable[[dict, Path], object]
    model: type
    describe: Callable[[object], str]      # the `validate` OK line


CONFIG_TYPES = {
    "actuator": _ConfigType(
        _parse_actuator, ActuatorModel,
        lambda a: f"actuator '{a.label}' (d_max_total "
                  f"{a.d_max_total:.4f} mm)"),
    "joint": _ConfigType(
        _parse_joint, LoadedJoint,
        lambda j: f"joint pair '{j.joint.actuator_1.label}' "
                  f"(R {j.joint.R} mm, delta {j.delta} rad)"),
    "chain": _ConfigType(
        _parse_chain, KinematicChain,
        lambda c: f"chain with 7 joints (reach limit "
                  f"{c.reach_limit:.3f} m)"),
    "lift": _ConfigType(_parse_lift, LiftScenario,
                        lambda s: f"lift scenario '{s.label}'"),
    "experiment": _ConfigType(
        _parse_experiment, ExperimentSpec,
        lambda e: f"experiment {e.experiment.name} -> {e.output}"),
}


def parse_config(path: Union[str, Path]):
    """Parse any config file; the top-level section names the type.

    Returns ActuatorModel, LoadedJoint, KinematicChain, LiftScenario or
    ExperimentSpec with all invariants checked.
    """
    path = Path(path)
    kind, doc = _read_config(path)
    return CONFIG_TYPES[kind].parse(doc, path)


def _merge_exact(base: np.ndarray, exact: Sequence[float]) -> np.ndarray:
    """Sorted union of grid points and exactly computed breakpoints inside
    the grid span; a point within 1e-9 of a later breakpoint gives way to
    it, and no grid point ever gives way to another."""
    inside = [b for b in exact if base[0] <= b <= base[-1]]
    pts = np.concatenate([base, inside])
    keep = np.ones(len(pts), dtype=bool)
    for i, b in enumerate(inside, start=len(base)):
        keep[:i] &= np.abs(pts[:i] - b) > 1e-9
    return np.sort(pts[keep])


@dataclass(frozen=True)
class ExperimentResult:
    output_path: Path
    summary_path: Path
    summary: dict


def _sweep_eval(fn, label: str, *coords: np.ndarray):
    """fn over whole coordinate arrays in one call. If that fails, the first
    failing point is found by bisection, in O(log n) calls on windows of the
    coordinates, and re-run as scalars for an error that names it."""
    try:
        return fn(*coords)
    except ValueError:
        lo, hi = 0, len(coords[0])    # c[:lo] passes; the fault is before hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                fn(*(c[lo:mid] for c in coords))
                lo = mid
            except ValueError:
                hi = mid
        point = [c[lo].item() for c in coords]
        try:
            fn(*point)
        except ValueError as exc:
            at = ", ".join(f"{v:g}" for v in point)
            raise ExperimentError(f"{label} at ({at}): {exc}") from exc
        raise


def run_experiment(spec: ExperimentSpec, out_dir: Union[str, Path] = ".",
                   fmt: Optional[str] = None,
                   seed: Optional[int] = None) -> ExperimentResult:
    """Run one experiment spec: write the data file and a JSON summary.

    fmt and seed override the spec when given. The spec, parsed or built
    in code, is checked as the parser checks it before anything is made.
    Deterministic: identical (spec, seed) produce byte-identical files.
    """
    spec = replace(spec, fmt=spec.fmt if fmt is None else fmt,
                   seed=spec.seed if seed is None else seed)
    _check_spec(spec, ExperimentError)
    if "seed" in spec.experiment.reads and spec.seed is None:
        raise ExperimentError(f"{spec.experiment.name} needs a seed >= 0 "
                              f"(spec field or --seed), got None")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ExperimentError(f"{out_dir}: cannot create the output "
                              f"directory: {exc.strerror or exc}") from exc
    kind = spec.experiment
    try:
        header, columns, summary = kind.run(spec)
    except (ValueError, ArithmeticError) as exc:  # a model fault
        raise ExperimentError(f"{kind.name}: {exc}") from exc

    out_path = out_dir / f"{spec.output}.{spec.fmt}"
    summary_path = out_dir / f"{spec.output}_summary.json"
    summary = {"experiment": kind.name, "rows": len(columns[0]), **summary}
    # the summary is written first and renamed last, so a failure before
    # the data file's rename leaves the previous pair as it was
    path = summary_path
    try:
        with _replacing(summary_path) as fh:
            fh.write((json.dumps(summary, indent=2, sort_keys=True)
                      + "\n").encode())
            path = out_path
            _write_rows(out_path, header, columns, spec.fmt)
            path = summary_path
    except OSError as exc:
        raise ExperimentError(f"{path}: cannot write: "
                              f"{exc.strerror or exc}") from exc
    return ExperimentResult(output_path=out_path, summary_path=summary_path,
                            summary=summary)


def _run_force_displacement(spec: ExperimentSpec):
    actuator = spec.model
    bp = actuator.d_max_total
    pts = _merge_exact(spec.sweeps["d"].points(), [bp])
    force = _sweep_eval(lambda d: force_from_displacement(actuator, d),
                        "force_from_displacement", pts)
    slope_below = actuator.k_et
    if slope_below is None:  # tabulated: the knot segment ending at bp
        F, d = actuator.element.table_F, actuator.knots_d
        slope_below = float((F[-1] - F[-2]) / (d[-1] - d[-2]))
    summary = {
        "operation": "force_from_displacement",
        "actuator_label": actuator.label,
        "breakpoint_mm": bp,
        "breakpoint_N": actuator.F_tm,
        "slope_below_N_per_mm": slope_below,
        "slope_above_N_per_mm": actuator.k_t,
        "force_max_N": float(force[-1]),
    }
    return ["displacement_mm", "force_N"], [pts, force], summary


def _run_stiffness_sweep(spec: ExperimentSpec):
    joint, delta = spec.model.joint, spec.delta
    bounds = stage_boundaries(joint, delta)
    pts = _merge_exact(spec.sweeps["d_s"].points(), bounds)
    F_e, K_s = _sweep_eval(
        lambda d_s: (external_force(joint, delta, d_s),
                     joint_stiffness(joint, delta, d_s)),
        "joint_stiffness", pts)
    stages = [s.value for s in classify_stage(joint, pts, delta).tolist()]
    summary = {
        "operation": "joint_stiffness",
        "delta_rad": delta,
        "stage_boundaries_mm": list(bounds),
        "K_s_min_Nmm_per_rad": float(K_s.min()),
        "K_s_max_Nmm_per_rad": float(K_s.max()),
    }
    return (["d_s_mm", "stage_label", "F_e_N", "K_s_Nmm_per_rad"],
            [pts, stages, F_e, K_s], summary)


def _run_acceleration(spec: ExperimentSpec):
    joint = spec.model.joint
    kink = joint.d_m / 2.0
    pts = _merge_exact(spec.sweeps["d_s"].points(), [kink, joint.d_m])
    acc = _sweep_eval(lambda d_s: max_allowable_acceleration(joint, d_s),
                      "max_allowable_acceleration", pts)
    summary = {
        "operation": "max_allowable_acceleration",
        "slope_change_at_mm": kink,
        "acc_max_rad_per_s2": float(acc.max()),
    }
    return ["d_s_mm", "theta_ddot_max_rad_per_s2"], [pts, acc], summary


def _run_torque_surface(spec: ExperimentSpec):
    joint = spec.model.joint
    ds_pts = spec.sweeps["d_s"].points()
    dt_pts = spec.sweeps["d_t"].points()
    ds = np.repeat(ds_pts, len(dt_pts))
    dt = np.tile(dt_pts, len(ds_pts))
    tau = _sweep_eval(lambda ds, dt: joint_torque(joint, ds, dt),
                      "joint_torque", ds, dt)
    peak = int(np.argmax(tau))  # the first maximum, in row order
    summary = {
        "operation": "joint_torque",
        "tau_max_Nmm": float(tau[peak]),
        "tau_max_at_d_s_mm": float(ds[peak]),
        "tau_max_at_d_t_mm": float(dt[peak]),
    }
    return ["d_s_mm", "d_t_mm", "tau_Nmm"], [ds, dt, tau], summary


def _run_max_torque(spec: ExperimentSpec):
    joint = spec.model.joint
    pts = _merge_exact(spec.sweeps["d_s"].points(),
                       [joint.d_m / 2.0, joint.d_m])
    tau = _sweep_eval(lambda d_s: max_controllable_torque(joint, d_s),
                      "max_controllable_torque", pts)
    summary = {
        "operation": "max_controllable_torque",
        "absolute_max_torque_Nmm": absolute_max_torque(joint),
        "tau_at_zero_pretension_Nmm": float(tau[0]),
    }
    return ["d_s_mm", "tau_max_Nmm"], [pts, tau], summary


def _run_stiffness_range(spec: ExperimentSpec):
    joint, delta = spec.model.joint, spec.delta
    rng = controllable_stiffness_range(joint, delta)
    summary = {
        "operation": "controllable_stiffness_range",
        "delta_rad": delta,
        "K_smin_Nmm_per_rad": rng.K_smin,
        "K_smax_Nmm_per_rad": rng.K_smax,
        "delta_K_Nmm_per_rad": rng.delta_K,
        "K_smin_Nm_per_rad": rng.K_smin / MM_PER_M,
        "K_smax_Nm_per_rad": rng.K_smax / MM_PER_M,
        "delta_K_Nm_per_rad": rng.delta_K / MM_PER_M,
        "evaluated_at_d_s_mm": [delta * joint.R, joint.d_m / 2.0],
    }
    return (["K_smin_Nmm_per_rad", "K_smax_Nmm_per_rad",
             "delta_K_Nmm_per_rad"],
            [[rng.K_smin], [rng.K_smax], [rng.delta_K]], summary)


def _run_workspace(spec: ExperimentSpec):
    cloud = sample_workspace(spec.model, spec.n, spec.seed)
    summary = {
        "operation": "sample_workspace",
        "seed": spec.seed,
        "n_samples": len(cloud.points),
        **cloud.stats,
    }
    return ["x_m", "y_m", "z_m"], cloud.points.T, summary


def _run_lift(spec: ExperimentSpec):
    trace = simulate_lift(spec.model)
    summary = {
        "operation": "simulate_lift",
        "peak_power_W": trace.peak_power,
        "peak_torque_Nm": trace.peak_torque,
        "time_to_target_s": trace.time_to_target,
        "reached_target": trace.reached_target,
    }
    return (["t_s", "theta_rad", "omega_rad_per_s", "tau_Nm",
             "tau_gravity_Nm", "power_W"],
            [trace.t, trace.theta, trace.omega, trace.tau, trace.tau_gravity,
             trace.power], summary)


class _ExperimentKind(NamedTuple):
    """An experiment kind: its `list-experiments` line, the config section
    it runs on, its sweep variables and its runner."""

    name: str
    note: str
    config: str                       # a key of CONFIG_TYPES
    sweeps: Tuple[str, ...]
    run: Callable[[ExperimentSpec], tuple]
    reads: Tuple[str, ...] = ()       # of the spec's delta, n and seed


EXPERIMENTS = {kind.name: kind for kind in (
    _ExperimentKind("ForceDisplacement",
                    "tendon force vs displacement curve of one actuator",
                    "actuator", ("d",), _run_force_displacement),
    _ExperimentKind("StiffnessVsPretension",
                    "joint stiffness and stage vs pre-tension",
                    "joint", ("d_s",), _run_stiffness_sweep, ("delta",)),
    _ExperimentKind("MaxAcceleration",
                    "slack-avoidance acceleration bound vs pre-tension",
                    "joint", ("d_s",), _run_acceleration),
    _ExperimentKind("TorqueSurface",
                    "joint torque over (pre-tension, torque displacement)",
                    "joint", ("d_s", "d_t"), _run_torque_surface),
    _ExperimentKind("MaxTorqueVsPretension",
                    "controllable torque ceiling vs pre-tension",
                    "joint", ("d_s",), _run_max_torque),
    _ExperimentKind("StiffnessRange", "controllable stiffness range endpoints",
                    "joint", (), _run_stiffness_range, ("delta",)),
    _ExperimentKind("Workspace",
                    "Monte Carlo end-effector point cloud of the arm",
                    "chain", (), _run_workspace, ("n", "seed")),
    _ExperimentKind("Lift", "single-joint payload lift trace under saturation",
                    "lift", (), _run_lift),
)}


# --------------------------------------------------------------------------
# command line


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tendonsim",
        description="Tendon-driven compliant actuator and joint simulation. "
                    "Config files resolve against the referencing file's "
                    f"directory, ${ENV_CONFIG_DIR}, the current directory, "
                    "then the bundled data directory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse a config file and check "
                                            "all its invariants")
    p_val.add_argument("config")

    p_run = sub.add_parser("run", help="run an experiment spec")
    p_run.add_argument("spec")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--format", choices=emit.FORMATS, default=None,
                       help="override the spec's output format")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the spec's RNG seed")

    sub.add_parser("list-experiments", help="list experiment kinds")

    args = parser.parse_args(argv)

    if args.command == "list-experiments":
        for kind in EXPERIMENTS.values():
            print(f"{kind.name}: {kind.note}")
        return 0

    try:
        # an overflow fails a check on its result; no numpy warning lines
        with np.errstate(all="ignore"):
            if args.command == "validate":
                obj = parse_config(_resolve(args.config, None))
            else:
                spec = parse_experiment(_resolve(args.spec, None))
                result = run_experiment(spec, out_dir=args.out,
                                        fmt=args.format, seed=args.seed)
    except (ConfigError, ExperimentError, SchemaError) as exc:
        word = "invalid" if args.command == "validate" else "error"
        print(f"{word}: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        describe = next(t.describe for t in CONFIG_TYPES.values()
                        if isinstance(obj, t.model))
        print(f"OK: {describe(obj)}")
    else:
        print(json.dumps(result.summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
