"""Config ingestion, experiment orchestration and CSV/JSON emission.

YAML config files describe actuators, joints, kinematic chains, lift
scenarios and experiment specs (one top-level section names the type).
Experiments sweep a module operation over uniform grids and write the
result as plot-ready CSV (or JSON) plus a JSON summary; stage boundaries
and other model breakpoints are merged into the grids exactly, so kinks
are never aliased by the sampling step.

Conventions:
  * every column name carries a unit suffix from UNIT_SUFFIXES; the writer
    checks the names and the column arrays (nonempty labels, finite
    numbers) before it opens the file, and validate_csv_schema checks the
    same contract on a CSV file read from disk, such as one from outside,
  * CSV dialect: comma separated, LF line endings, '.' decimal, header row
    mandatory,
  * outputs are byte-identical for identical (spec, seed),
  * config paths resolve against the referencing file's directory, then
    $TENDONSIM_CONFIG_DIR, then the bundled data directory.

Each config type is one row of CONFIG_TYPES (section name -> parser, model
class, the `validate` description) and each experiment kind one row of
EXPERIMENTS (name, note, config section, sweep variables, runner). A new
kind is one row plus its runner, a function of the spec that returns
(header, columns, summary). The runners stay in this module: the
benchmark's tracer patches the layer functions they call here.

The bundled data directory ships reference parameter sets for the two
prototype actuators, a tabulated nonlinear stand-in, joint/arm/lift
scenarios, and one experiment spec per experiment kind.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import reprlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np
import yaml

from .dynamics import LiftScenario, simulate_lift
from .elastic import (ActuatorModel, ElasticElementSpec, ElementKind,
                      force_from_displacement)
from .joint import (AntagonisticJointConfig, classify_stage,
                    controllable_stiffness_range, external_force,
                    joint_stiffness, joint_torque, max_allowable_acceleration,
                    max_controllable_torque, absolute_max_torque,
                    stage_boundaries)
from .kinematics import (DHRow, KinematicChain, default_arm, sample_workspace,
                         DEFAULT_ROM_DEG)

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

DATA_DIR = Path(__file__).parent / "data"
ENV_CONFIG_DIR = "TENDONSIM_CONFIG_DIR"

# Most points one run may evaluate: the points of its sweep grid (the
# product of both axes for TorqueSurface), its Workspace n or its Lift
# steps. 100x the largest bundled run (Workspace, n = 1e5); a Workspace
# peaks at 180 MB RSS for n = 1e6, so near 1.5 GB at this size. Checked on
# the computed size, at parse time.
MAX_RUN_POINTS = 10_000_000

# every emitted column must end in one of these
UNIT_SUFFIXES = (
    "_mm", "_N", "_Nmm", "_Nm", "_rad", "_rad_per_s", "_rad_per_s2",
    "_Nmm_per_rad", "_Nm_per_rad", "_N_per_mm", "_m", "_s", "_W",
    "_count", "_label",
)


class ConfigError(Exception):
    """A config file failed to parse or validate."""

    def __init__(self, path: Union[str, Path], message: str) -> None:
        self.path = str(path)
        super().__init__(f"{path}: {message}")


class ExperimentError(Exception):
    """An experiment failed while evaluating a sweep point."""


class SchemaError(Exception):
    """A table to emit, or a CSV file, violates the unit-suffix schema."""


# --------------------------------------------------------------------------
# config plumbing


def _resolve(name: Union[str, Path], base_dir: Optional[Path]) -> Path:
    """Find a config file: absolute, then relative to the referencing file,
    then $TENDONSIM_CONFIG_DIR, then the bundled data directory."""
    p = Path(name)
    if p.is_absolute():
        if p.is_file():
            return p
        raise ConfigError(name, "file not found")
    tried = []
    candidates = []
    if base_dir is not None:
        candidates.append(base_dir / p)
    env_dir = os.environ.get(ENV_CONFIG_DIR)
    if env_dir:
        candidates.append(Path(env_dir) / p)
    candidates.append(Path.cwd() / p)
    candidates.append(DATA_DIR / p)
    for cand in candidates:
        if cand.is_file():
            return cand
        tried.append(str(cand))
    raise ConfigError(name, "file not found; tried " + ", ".join(tried))


def _with_yaml12_floats(base: type) -> type:
    """A safe loader class on base that also reads YAML 1.2 floats whose
    exponent follows the digits without a dot (1e-4, -2E+3), which YAML 1.1
    leaves as strings."""
    class Loader(base):
        pass

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    return Loader


# libyaml's C parser when PyYAML was built with it, else the pure-Python one
_YamlLoader = _with_yaml12_floats(getattr(yaml, "CSafeLoader",
                                          yaml.SafeLoader))
_PyYamlLoader = _with_yaml12_floats(yaml.SafeLoader)

# The C loader composes nodes by recursing in C, once per nesting level, and
# overflows the C stack (a crash, not an exception) somewhere past 20000
# levels on an 8 MB stack. Every level opens with one of these bytes, so a
# document with few of them goes to the C loader; any other goes to the
# pure-Python one, whose deepest documents end in RecursionError.
_NESTING_BYTES = b"[{-?:"
_C_LOADER_MAX_NESTING_BYTES = 1000


def _read_yaml(path: Path) -> dict:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
            fh.seek(0)
            shallow = (sum(map(data.count, _NESTING_BYTES))
                       <= _C_LOADER_MAX_NESTING_BYTES)
            doc = yaml.load(fh, Loader=_YamlLoader if shallow
                            else _PyYamlLoader)
    except OSError as exc:
        raise ConfigError(path, f"cannot read: {exc}") from exc
    except RecursionError:
        raise ConfigError(path, "YAML parse error: nested too "
                                "deeply") from None
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: a well-formed scalar the constructor cannot build,
        # such as the date 2001-13-01 or an int of more than 4300 digits
        raise ConfigError(path, "YAML parse error: "
                                + " ".join(str(exc).split())) from exc
    if not isinstance(doc, dict):
        raise ConfigError(path, "top level must be a mapping")
    return doc


class _Section:
    """A config mapping with typed field access, required-field errors that
    name the field, and unknown-key detection for strict mode."""

    def __init__(self, data: object, path: Path, name: str) -> None:
        if not isinstance(data, dict):
            raise ConfigError(path, f"section '{name}' must be a mapping")
        self.data = data
        self.path = path
        self.name = name
        self.used: set = set()

    def _fail(self, msg: str) -> "ConfigError":
        return ConfigError(self.path, f"section '{self.name}': {msg}")

    def take(self, key: str, required: bool = True, default=None):
        if key in self.data:
            self.used.add(key)
            return self.data[key]
        if required:
            raise self._fail(f"missing field '{key}'")
        return default

    def _take_typed(self, key: str, required: bool, default, types: tuple,
                    what: str):
        """A field of one of types; a null is a missing value, so it takes
        the default of an optional field and fails a required one."""
        v = self.take(key, required, default)
        if v is None and not required:
            return default
        if isinstance(v, bool) or not isinstance(v, types):
            raise self._fail(f"field '{key}' must be {what}, got "
                             f"{reprlib.repr(v)}")
        return v

    def take_float(self, key: str, required: bool = True,
                   default: Optional[float] = None) -> Optional[float]:
        v = self._take_typed(key, required, default, (int, float), "a number")
        if v is None:
            return None
        try:
            return float(v)
        except OverflowError:  # an int past the float range
            raise self._fail(f"field '{key}' is out of range, got "
                             f"{reprlib.repr(v)}") from None

    def take_int(self, key: str, required: bool = True,
                 default: Optional[int] = None) -> Optional[int]:
        return self._take_typed(key, required, default, (int,), "an integer")

    def take_str(self, key: str, required: bool = True,
                 default: Optional[str] = None) -> Optional[str]:
        return self._take_typed(key, required, default, (str,), "a string")

    def finish(self, strict: bool) -> None:
        extra = sorted(set(self.data) - self.used, key=str)
        if extra and strict:
            raise self._fail(f"unknown keys {extra}")


def _load_table_csv(path: Path) -> Tuple[Tuple[float, float], ...]:
    """Two-column (displacement_mm, force_N) curve with a mandatory header."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ConfigError(path, "empty table file")
            if [h.strip() for h in header] != ["displacement_mm", "force_N"]:
                raise ConfigError(path, "table header must be exactly "
                                        "'displacement_mm,force_N'")
            rows = []
            for i, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ConfigError(path, f"line {i}: expected 2 columns")
                try:
                    rows.append((float(row[0]), float(row[1])))
                except ValueError as exc:
                    raise ConfigError(path, f"line {i}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(path, f"cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(path, f"not UTF-8 text: {exc}") from exc
    except csv.Error as exc:  # such as a field past csv's size limit
        raise ConfigError(path, f"CSV error: {exc}") from exc
    return tuple(rows)


# --------------------------------------------------------------------------
# typed config parsers


# Each typed parser takes the loaded document of the file at path, so that
# parse_config reads a file once to find its type and to parse it.


def _parse_actuator(doc: dict, path: Path, strict: bool) -> ActuatorModel:
    sec = _Section(doc.get("actuator"), path, "actuator")
    label = sec.take_str("label", required=False, default=path.stem)
    kind = sec.take_str("kind")
    k_t = sec.take_float("k_t")
    rated_force = sec.take_float("rated_force")
    rated_speed = sec.take_float("rated_speed")

    try:
        if kind == ElementKind.TORSION_SPRING_INTERNAL.value:
            k_e = sec.take_float("k_e", required=False)
            k_ts = sec.take_float("k_ts", required=False)
            r = sec.take_float("pulley_radius_r")
            mu_p = sec.take_float("mu_p", required=False, default=0.0)
            F_tm = sec.take_float("F_tm")
            d_max = _element_travel(sec, F_tm, k_t)
            element = ElasticElementSpec.torsion_internal(
                k_e=k_e, k_ts=k_ts, pulley_radius_r=r, mu_p=mu_p,
                F_tm=F_tm, d_max=d_max)
        elif kind == ElementKind.COMPRESSION_SPRING_EXTERNAL.value:
            k_cs = sec.take_float("k_cs")
            F_tm = sec.take_float("F_tm")
            d_max = _element_travel(sec, F_tm, k_t)
            element = ElasticElementSpec.compression_external(
                k_cs=k_cs, F_tm=F_tm, d_max=d_max)
        elif kind == ElementKind.TABULATED.value:
            table_name = sec.take_str("table")
            table = _load_table_csv(_resolve(table_name, path.parent))
            element = ElasticElementSpec.tabulated(table)
        else:
            raise ConfigError(path, f"section 'actuator': field 'kind' must "
                                    f"be one of torsion_internal, "
                                    f"compression_external, tabulated; "
                                    f"got {kind!r}")
        sec.finish(strict)
        return ActuatorModel(element=element, k_t=k_t,
                             rated_force=rated_force,
                             rated_speed=rated_speed, label=label)
    except (ValueError, ArithmeticError) as exc:
        # ArithmeticError: a value so extreme that the element law
        # overflows or divides by zero
        raise ConfigError(path, f"section 'actuator': {exc}") from exc


def _element_travel(sec: _Section, F_tm: float, k_t: float) -> Optional[float]:
    """Element travel from either d_max_element, or d_m_total minus the
    tendon stretch at F_tm (the published tables quote totals)."""
    d_el = sec.take_float("d_max_element", required=False)
    d_tot = sec.take_float("d_m_total", required=False)
    if d_el is not None and d_tot is not None:
        raise sec._fail("give at most one of d_max_element / d_m_total")
    if d_tot is not None:
        d_el = d_tot - F_tm / k_t
        if d_el <= 0:
            raise sec._fail(f"d_m_total={d_tot} leaves no element travel "
                            f"after tendon stretch {F_tm / k_t:.4f} mm")
    return d_el


@dataclass(frozen=True)
class LoadedJoint:
    """A joint config plus the test deflection delta (rad) it quotes."""

    joint: AntagonisticJointConfig
    delta: float


def _actuator_reader(base_dir: Path, strict: bool):
    """A function from an actuator file name, resolved against base_dir, to
    its parsed model. A file named twice, as by a symmetric pair, is read
    (with its table) once, and both names get the same model."""
    parsed: Dict[Path, ActuatorModel] = {}

    def read(name: str) -> ActuatorModel:
        path = _resolve(name, base_dir)
        key = path.resolve()
        if key not in parsed:
            parsed[key] = _parse_actuator(_read_yaml(path), path, strict)
        return parsed[key]
    return read


def _parse_joint(doc: dict, path: Path, strict: bool) -> LoadedJoint:
    sec = _Section(doc.get("joint"), path, "joint")
    read_actuator = _actuator_reader(path.parent, strict)
    a1 = read_actuator(sec.take_str("actuator_1"))
    a2 = read_actuator(sec.take_str("actuator_2"))
    R = sec.take_float("R")
    mu_s = sec.take_float("mu_s")
    inertia = sec.take_float("inertia_I")
    delta = sec.take_float("delta", required=False, default=0.087)
    sec.finish(strict)
    if not delta > 0:
        raise ConfigError(path, f"section 'joint': delta must be > 0, got {delta}")
    try:
        joint = AntagonisticJointConfig(actuator_1=a1, actuator_2=a2, R=R,
                                        mu_s=mu_s, inertia_I=inertia)
    except ValueError as exc:
        raise ConfigError(path, f"section 'joint': {exc}") from exc
    return LoadedJoint(joint=joint, delta=delta)


_LINK_NAMES = ("b", "c", "d")


def _parse_chain(doc: dict, path: Path, strict: bool) -> KinematicChain:
    sec = _Section(doc.get("chain"), path, "chain")
    links_raw = sec.take("link_lengths")
    links = _Section(links_raw, path, "chain.link_lengths")
    lengths = {name: links.take_float(name) for name in _LINK_NAMES}
    links.finish(strict)

    rom_raw = sec.take("rom_deg", required=False)
    rom_deg = dict(DEFAULT_ROM_DEG)
    if rom_raw is not None:
        rsec = _Section(rom_raw, path, "chain.rom_deg")
        for name in list(rom_raw):
            pair = rsec.take(name)
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or any(isinstance(v, bool) or not isinstance(v, (int, float))
                           for v in pair)):
                raise ConfigError(path, f"section 'chain.rom_deg': '{name}' "
                                        f"must be a [lo, hi] pair of numbers")
            rom_deg[name] = (float(pair[0]), float(pair[1]))
        rsec.finish(strict)

    rows_raw = sec.take("rows", required=False)
    sec.finish(strict)
    if rows_raw is None:
        try:
            return default_arm(rom_deg=rom_deg, **lengths)
        except ValueError as exc:
            raise ConfigError(path, f"section 'chain': {exc}") from exc

    if not isinstance(rows_raw, list):
        raise ConfigError(path, "section 'chain': 'rows' must be a list")
    rows = []
    for i, rdata in enumerate(rows_raw, start=1):
        rsec = _Section(rdata, path, f"chain.rows[{i}]")
        a = _length_field(rsec, "a", lengths, path)
        d = _length_field(rsec, "d", lengths, path)
        alpha = math.radians(rsec.take_float("alpha_deg"))
        offset = math.radians(rsec.take_float("theta_offset_deg"))
        sign = rsec.take_int("joint_sign", required=False, default=+1)
        name = rsec.take_str("joint")
        rsec.finish(strict)
        try:
            rows.append(DHRow(a=a, d=d, alpha=alpha, theta_offset=offset,
                              joint_sign=sign, joint_name=name))
        except ValueError as exc:
            raise ConfigError(path, f"section 'chain.rows[{i}]': {exc}") from exc
    rom = {name: (math.radians(lo), math.radians(hi))
           for name, (lo, hi) in rom_deg.items()}
    try:
        return KinematicChain(rows=tuple(rows), link_lengths=lengths, rom=rom)
    except ValueError as exc:
        raise ConfigError(path, f"section 'chain': {exc}") from exc


def _length_field(rsec: _Section, key: str, lengths: Dict[str, float],
                  path: Path) -> float:
    """A D-H length is a number in meters or a named link length."""
    v = rsec.take(key, required=False, default=0.0)
    if isinstance(v, str):
        if v not in lengths:
            raise ConfigError(path, f"section '{rsec.name}': '{key}' names "
                                    f"unknown link length {v!r}")
        return lengths[v]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"section '{rsec.name}': '{key}' must be a "
                                f"number or a link-length name")
    return float(v)


def _parse_lift(doc: dict, path: Path, strict: bool) -> LiftScenario:
    sec = _Section(doc.get("lift"), path, "lift")
    label = sec.take_str("label", required=False, default=path.stem)
    act_names = sec.take("actuators")
    if (not isinstance(act_names, list) or not act_names
            or not all(isinstance(n, str) for n in act_names)):
        raise ConfigError(path, "section 'lift': 'actuators' must be a "
                                "nonempty list of actuator config files")
    actuators = tuple(map(_actuator_reader(path.parent, strict), act_names))
    kwargs = dict(
        payload_mass=sec.take_float("payload_mass"),
        limb_mass=sec.take_float("limb_mass"),
        limb_com_distance=sec.take_float("limb_com_distance"),
        payload_distance=sec.take_float("payload_distance"),
        joint_R=sec.take_float("joint_R"),
        theta_start=math.radians(sec.take_float("theta_start_deg")),
        theta_target=math.radians(sec.take_float("theta_target_deg")),
        dt=sec.take_float("dt"),
        t_max=sec.take_float("t_max"),
        gravity=sec.take_float("gravity", required=False, default=9.81),
    )
    sec.finish(strict)
    try:
        scenario = LiftScenario(actuators=actuators, label=label, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(path, f"section 'lift': {exc}") from exc
    if scenario.t_max / scenario.dt + 1 > MAX_RUN_POINTS:
        raise ConfigError(path, f"section 'lift': t_max/dt allows more than "
                                f"{MAX_RUN_POINTS} steps")
    return scenario


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

    def points(self) -> List[float]:
        n, tail = self._extent()
        pts = [self.start + i * self.step for i in range(n + 1)]
        if tail:
            pts.append(self.stop)
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
    source: Optional[Path] = None


def parse_experiment(path: Union[str, Path],
                     strict: bool = False) -> ExperimentSpec:
    """Parse an experiment spec file and the config file it names."""
    path = Path(path)
    return _parse_experiment(_read_yaml(path), path, strict)


def _parse_experiment(doc: dict, path: Path, strict: bool) -> ExperimentSpec:
    sec = _Section(doc.get("experiment"), path, "experiment")
    kind_name = sec.take_str("kind")
    kind = EXPERIMENTS.get(kind_name)
    if kind is None:
        raise ConfigError(path, f"section 'experiment': unknown kind "
                                f"{kind_name!r}; one of "
                                f"{', '.join(EXPERIMENTS)}")
    config_path = _resolve(sec.take_str("config"), path.parent)
    model = CONFIG_TYPES[kind.config].parse(_read_yaml(config_path),
                                            config_path, strict)

    sweeps: Dict[str, GridSpec] = {}
    sweep_raw = sec.take("sweep", required=False, default={})
    ssec = _Section(sweep_raw, path, "experiment.sweep")
    for var in kind.sweeps:
        gdata = ssec.take(var)
        gsec = _Section(gdata, path, f"experiment.sweep.{var}")
        try:
            sweeps[var] = GridSpec(start=gsec.take_float("start"),
                                   stop=gsec.take_float("stop"),
                                   step=gsec.take_float("step"))
        except ValueError as exc:
            raise ConfigError(path, f"section 'experiment.sweep.{var}': "
                                    f"{exc}") from exc
        gsec.finish(strict)
    ssec.finish(strict)

    output = sec.take_str("output")
    fmt = sec.take_str("format", required=False, default="csv")
    seed = sec.take_int("seed", required=False)
    delta = sec.take_float("delta", required=False)
    n = sec.take_int("n", required=False)
    sec.finish(strict)
    if fmt not in ("csv", "json"):
        raise ConfigError(path, f"section 'experiment': format must be csv "
                                f"or json, got {fmt!r}")
    if delta is not None and not (math.isfinite(delta) and delta > 0):
        raise ConfigError(path, f"section 'experiment': field 'delta' must "
                                f"be finite and > 0, got {delta}")
    if kind.sampled and not 1 <= (n or 0) <= MAX_RUN_POINTS:
        raise ConfigError(path, f"section 'experiment': {kind.name} needs "
                                f"1 <= n <= {MAX_RUN_POINTS}")
    if math.prod(g.count() for g in sweeps.values()) > MAX_RUN_POINTS:
        raise ConfigError(path, f"section 'experiment': the sweep grid has "
                                f"more than {MAX_RUN_POINTS} points")
    if delta is None and isinstance(model, LoadedJoint):
        delta = model.delta
    return ExperimentSpec(experiment=kind, model=model, sweeps=sweeps,
                          output=output, fmt=fmt, seed=seed, delta=delta,
                          n=n, source=path)


class _ConfigType(NamedTuple):
    """A config file type, named by its one top-level section."""

    parse: Callable[[dict, Path, bool], object]
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


def parse_config(path: Union[str, Path], strict: bool = False):
    """Parse any config file; the top-level section names the type.

    Returns ActuatorModel, LoadedJoint, KinematicChain, LiftScenario or
    ExperimentSpec with all invariants checked.
    """
    path = Path(path)
    doc = _read_yaml(path)
    kinds = [k for k in CONFIG_TYPES if k in doc]
    if len(kinds) != 1:
        raise ConfigError(path, f"expected exactly one of the sections "
                                f"{sorted(CONFIG_TYPES)}, found {kinds}")
    if strict:
        extra = sorted(set(doc) - set(kinds), key=str)
        if extra:
            raise ConfigError(path, f"unknown top-level keys {extra}")
    return CONFIG_TYPES[kinds[0]].parse(doc, path, strict)


# --------------------------------------------------------------------------
# emission


def _check_columns(header: Sequence[str], columns: Sequence) -> None:
    """The schema of an emitted table, checked on its columns: every name
    ends in a known unit suffix, all columns have the same length, *_label
    cells are nonempty strings and every other cell is finite. Raises
    SchemaError on the first violation."""
    if not header or len(columns) != len(header):
        raise SchemaError(f"{len(header)} column names for "
                          f"{len(columns)} columns")
    n = len(columns[0])
    for name, col in zip(header, columns):
        if not name.endswith(UNIT_SUFFIXES):
            raise SchemaError(f"column '{name}' lacks a known unit suffix "
                              f"{UNIT_SUFFIXES}")
        if len(col) != n:
            raise SchemaError(f"column '{name}' has {len(col)} cells, "
                              f"expected {n}")
        if name.endswith("_label"):
            bad = next((i for i, s in enumerate(col)
                        if not (isinstance(s, str) and s)), None)
            what = "empty label"
        else:
            finite = np.isfinite(col)
            bad = None if finite.all() else int(np.argmin(finite))
            what = "non-finite cell"
        if bad is not None:
            raise SchemaError(f"row {bad + 1}: {what} in '{name}'")


def _csv_cell(s: str) -> str:
    """A string cell exactly as csv.writer quotes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([s])
    return buf.getvalue()[:-1]


def _write_rows(path: Path, header: Sequence[str], columns: Sequence,
                fmt: str) -> None:
    """Write a table from its columns as CSV (cells formatted "%.12g") or
    as JSON ({"columns", "rows"}, as json.dump with indent=2 and sorted keys
    lays it out). The schema is checked before the file is opened.

    columns are float arrays, or lists of str for *_label columns. Each row
    is rendered by one %-template over Python scalars and streamed to the
    file, so no row objects or joined text are held.
    """
    try:
        _check_columns(header, columns)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    quote = json.dumps if fmt == "json" else _csv_cell
    cells, specs = [], []
    for name, col in zip(header, columns):
        if name.endswith("_label"):
            quoted = {s: quote(s) for s in set(col)}
            cells.append([quoted[s] for s in col])
            specs.append("%s")
        else:
            cells.append(np.asarray(col, dtype=float).tolist())
            specs.append("%r" if fmt == "json" else "%.12g")
    rows = zip(*cells)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            fh.writelines(map((",".join(specs) + "\n").__mod__, rows))
        return
    # json.dump(indent=2) puts "rows" last (sorted keys), one cell per line
    head, tail = json.dumps({"columns": list(header), "rows": []}, indent=2,
                            sort_keys=True).rsplit("[]", 1)
    row = ",\n    [\n      " + ",\n      ".join(specs) + "\n    ]"
    with open(path, "w") as fh:
        fh.write(head + "[")
        first = next(rows, None)
        if first is not None:
            fh.write((row % first)[1:])
            fh.writelines(map(row.__mod__, rows))
            fh.write("\n  ")
        fh.write("]" + tail + "\n")


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def validate_csv_schema(path: Union[str, Path]) -> None:
    """Check the unit-suffix header contract of a CSV file on disk.

    Every column name must end in a documented unit suffix; *_label columns
    hold nonempty strings, all other cells parse as finite floats; rows are
    rectangular. Raises SchemaError on the first violation.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise SchemaError(f"{path}: missing header row")
        for col in header:
            if not any(col.endswith(sfx) for sfx in UNIT_SUFFIXES):
                raise SchemaError(f"{path}: column '{col}' lacks a known "
                                  f"unit suffix {UNIT_SUFFIXES}")
        is_label = [col.endswith("_label") for col in header]
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SchemaError(f"{path}: line {i}: expected "
                                  f"{len(header)} cells, got {len(row)}")
            for col, cell, lab in zip(header, row, is_label):
                if lab:
                    if not cell:
                        raise SchemaError(f"{path}: line {i}: empty label "
                                          f"in '{col}'")
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise SchemaError(f"{path}: line {i}: non-numeric cell "
                                      f"{cell!r} in '{col}'") from None
                if not math.isfinite(v):
                    raise SchemaError(f"{path}: line {i}: non-finite cell "
                                      f"in '{col}'")


def _merge_exact(base: List[float], exact: Sequence[float]) -> List[float]:
    """Sorted union of grid points and exactly computed breakpoints inside
    the grid span; near-duplicates collapse onto the exact value."""
    if not base:
        return sorted(exact)
    lo, hi = base[0], base[-1]
    tagged = [(v, False) for v in base]
    tagged += [(v, True) for v in exact if lo <= v <= hi]
    tagged.sort()
    out: List[Tuple[float, bool]] = []
    for v, is_exact in tagged:
        if out and abs(v - out[-1][0]) <= 1e-9:
            if is_exact and not out[-1][1]:
                out[-1] = (v, True)
            continue
        out.append((v, is_exact))
    return [v for v, _ in out]


@dataclass(frozen=True)
class ExperimentResult:
    output_path: Path
    summary_path: Path
    summary: dict


def _sweep_eval(fn, label: str, *coords: np.ndarray):
    """fn over whole coordinate arrays in one call. If that fails, the
    points are re-run one at a time so the error names the first failing
    sweep coordinate."""
    try:
        return fn(*coords)
    except ValueError:
        for point in zip(*(c.tolist() for c in coords)):
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

    fmt and seed override the spec when given. Deterministic: identical
    (spec, seed) produce byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = spec.experiment
    if not isinstance(spec.model, CONFIG_TYPES[kind.config].model):
        raise ExperimentError(f"{kind.name} needs a {kind.config} config, "
                              f"got {type(spec.model).__name__}")
    spec = replace(spec, fmt=fmt or spec.fmt,
                   seed=spec.seed if seed is None else seed)
    header, columns, summary = kind.run(spec)

    out_path = (out_dir / spec.output).with_suffix("." + spec.fmt)
    _write_rows(out_path, header, columns, spec.fmt)
    summary = {"experiment": kind.name, "rows": len(columns[0]), **summary}
    summary_path = out_path.with_name(out_path.stem + "_summary.json")
    _write_json(summary_path, summary)
    return ExperimentResult(output_path=out_path, summary_path=summary_path,
                            summary=summary)


def _run_force_displacement(spec: ExperimentSpec):
    actuator = spec.model
    bp = actuator.d_max_total
    pts = np.array(_merge_exact(spec.sweeps["d"].points(), [bp]))
    force = _sweep_eval(lambda d: force_from_displacement(actuator, d),
                        "force_from_displacement", pts)
    h = min(0.01, bp / 100.0)
    slope_below = (force_from_displacement(actuator, bp)
                   - force_from_displacement(actuator, bp - h)) / h
    slope_above = (force_from_displacement(actuator, bp + h)
                   - force_from_displacement(actuator, bp)) / h
    summary = {
        "operation": "force_from_displacement",
        "actuator_label": actuator.label,
        "breakpoint_mm": bp,
        "breakpoint_N": actuator.F_tm,
        "slope_below_N_per_mm": slope_below,
        "slope_above_N_per_mm": slope_above,
        "force_max_N": float(force[-1]),
    }
    return ["displacement_mm", "force_N"], [pts, force], summary


def _run_stiffness_sweep(spec: ExperimentSpec):
    joint, delta = spec.model.joint, spec.delta
    bounds = stage_boundaries(joint, delta)
    pts = np.array(_merge_exact(spec.sweeps["d_s"].points(), bounds))
    F_e, K_s = _sweep_eval(
        lambda d_s: (external_force(joint, delta, d_s),
                     joint_stiffness(joint, delta, d_s)),
        "joint_stiffness", pts)
    stages = [classify_stage(joint, d_s, delta).value for d_s in pts.tolist()]
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
    pts = np.array(_merge_exact(spec.sweeps["d_s"].points(),
                                [kink, joint.d_m]))
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
    pts = np.array(_merge_exact(spec.sweeps["d_s"].points(),
                                [joint.d_m / 2.0, joint.d_m]))
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
    try:
        rng = controllable_stiffness_range(joint, delta)
    except ValueError as exc:
        raise ExperimentError(f"controllable_stiffness_range: {exc}") from exc
    summary = {
        "operation": "controllable_stiffness_range",
        "delta_rad": delta,
        "K_smin_Nmm_per_rad": rng.K_smin,
        "K_smax_Nmm_per_rad": rng.K_smax,
        "delta_K_Nmm_per_rad": rng.delta_K,
        "K_smin_Nm_per_rad": rng.K_smin / 1000.0,
        "K_smax_Nm_per_rad": rng.K_smax / 1000.0,
        "delta_K_Nm_per_rad": rng.delta_K / 1000.0,
        "evaluated_at_d_s_mm": [delta * joint.R, joint.d_m / 2.0],
    }
    return (["K_smin_Nmm_per_rad", "K_smax_Nmm_per_rad",
             "delta_K_Nmm_per_rad"],
            [[rng.K_smin], [rng.K_smax], [rng.delta_K]], summary)


def _run_workspace(spec: ExperimentSpec):
    if spec.seed is None or spec.seed < 0:
        raise ExperimentError(f"Workspace needs a seed >= 0 (spec field or "
                              f"--seed), got {spec.seed}")
    cloud = sample_workspace(spec.model, spec.n, spec.seed)
    summary = {
        "operation": "sample_workspace",
        "seed": spec.seed,
        "n_samples": cloud.n_samples,
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
    sampled: bool = False             # draws n samples from a seed


EXPERIMENTS = {kind.name: kind for kind in (
    _ExperimentKind("ForceDisplacement",
                    "tendon force vs displacement curve of one actuator",
                    "actuator", ("d",), _run_force_displacement),
    _ExperimentKind("StiffnessVsPretension",
                    "joint stiffness and stage vs pre-tension",
                    "joint", ("d_s",), _run_stiffness_sweep),
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
                    "joint", (), _run_stiffness_range),
    _ExperimentKind("Workspace",
                    "Monte Carlo end-effector point cloud of the arm",
                    "chain", (), _run_workspace, sampled=True),
    _ExperimentKind("Lift", "single-joint payload lift trace under saturation",
                    "lift", (), _run_lift),
)}


# --------------------------------------------------------------------------
# command line


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tendonsim",
        description="Tendon-driven compliant actuator and joint simulation. "
                    "Config files resolve against the current directory, "
                    f"${ENV_CONFIG_DIR}, then the bundled data directory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse a config file and check "
                                            "all its invariants")
    p_val.add_argument("config")
    p_val.add_argument("--strict", action="store_true",
                       help="also reject unknown keys")

    p_run = sub.add_parser("run", help="run an experiment spec")
    p_run.add_argument("spec")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override the spec's output format")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the spec's RNG seed")
    p_run.add_argument("--strict", action="store_true",
                       help="also reject unknown config keys")

    sub.add_parser("list-experiments", help="list experiment kinds")

    args = parser.parse_args(argv)

    if args.command == "list-experiments":
        for kind in EXPERIMENTS.values():
            print(f"{kind.name}: {kind.note}")
        return 0

    if args.command == "validate":
        try:
            obj = parse_config(_resolve(args.config, None), args.strict)
        except ConfigError as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1
        describe = next(t.describe for t in CONFIG_TYPES.values()
                        if isinstance(obj, t.model))
        print(f"OK: {describe(obj)}")
        return 0

    # run
    try:
        spec_path = _resolve(args.spec, None)
        spec = parse_experiment(spec_path, args.strict)
        result = run_experiment(spec, out_dir=args.out, fmt=args.format,
                                seed=args.seed)
    except (ConfigError, ExperimentError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
