"""Config ingestion, experiment orchestration and CSV/JSON emission.

YAML config files describe actuators, joints, kinematic chains, lift
scenarios and experiment specs (one top-level section names the type).
Experiments sweep a module operation over uniform grids and write the
result as plot-ready CSV (or JSON) plus a JSON summary; stage boundaries
and other model breakpoints are merged into the grids exactly, so kinks
are never aliased by the sampling step.

Conventions:
  * a config error is one line, `<path>: section '<name>': <message>` for
    anything inside a section (built by _Section), else `<path>: <message>`,
  * every column name carries a unit suffix from UNIT_SUFFIXES; the writer
    checks the names and the column arrays (nonempty labels, finite
    numbers) with _check_columns before it opens the file;
    validate_csv_schema is _check_columns on a CSV file read from disk,
    after the checks only a file can fail (header, ragged rows, numbers),
  * CSV dialect: comma separated, LF line endings, '.' decimal, header row
    mandatory,
  * rows are rendered a block at a time (_row_blocks) and streamed to a
    temporary file in the output directory, renamed onto the output name
    once complete; both formats render a block by numpy in one slot layout
    (_slot_rows), a CSV float cell's "%.12g" text from its 12-digit
    significand, a JSON float cell's repr text from its shortest
    round-trip digits; Python renders the cells outside 1e-4 <= |x| < 1e11
    (CSV) or 1e16 (JSON) and those its guard cannot be sure of,
  * outputs are byte-identical for identical (spec, seed),
  * config paths resolve against the referencing file's directory, then
    $TENDONSIM_CONFIG_DIR, then the current directory, then the bundled
    data directory.

Each config type is one row of CONFIG_TYPES (section name -> parser, model
class, the `validate` description) and each experiment kind one row of
EXPERIMENTS (name, note, config section, sweep variables, runner). A new
kind is one row plus its runner, a function of the spec that returns
(header, columns, summary), reporting what the model holds; run_experiment
alone turns a model fault into an ExperimentError that names the kind. The
runners stay in this module: the benchmark's tracer patches the layer
functions they call here.

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
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from functools import partial, reduce
from itertools import count, islice
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, TextIO, Tuple, Union)

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
# steps. 100x the largest bundled run (Workspace, n = 1e5). `tendonsim run`
# of a Workspace peaks at 63 MB RSS for n = 1e6 and 113 MB for n = 3e6, CSV
# or JSON (32 MB after import; the points take 24 B each), so near 290 MB
# at this size. Checked on the computed size, at parse time.
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
    """An experiment failed: the model raised while the run evaluated it,
    or its output could not be written."""


class SchemaError(Exception):
    """A table to emit, or a CSV file, violates the unit-suffix schema."""


# --------------------------------------------------------------------------
# config plumbing


def _resolve(name: Union[str, Path], base_dir: Optional[Path]) -> Path:
    """Find a config file: absolute, then relative to the referencing file,
    then $TENDONSIM_CONFIG_DIR, then the current directory, then the bundled
    data directory."""
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
    name the field, and unknown-key detection for strict mode. _fail builds
    every error about the section, `<path>: section '<name>': <message>`,
    also those raised by the model built inside checking()."""

    def __init__(self, data: object, path: Path, name: str) -> None:
        if not isinstance(data, dict):
            raise ConfigError(path, f"section '{name}' must be a mapping")
        self.data = data
        self.path = path
        self.name = name
        self.used: set = set()

    def _fail(self, msg: str) -> "ConfigError":
        return ConfigError(self.path, f"section '{self.name}': {msg}")

    def _wrong_type(self, key: str, what: str, v) -> "ConfigError":
        return self._fail(f"field '{key}' must be {what}, got "
                          f"{reprlib.repr(v)}")

    @contextmanager
    def checking(self) -> Iterator[None]:
        """Re-raise a ValueError or ArithmeticError of the block (a model
        constructor's check, an overflow) as the section's error."""
        try:
            yield
        except (ValueError, ArithmeticError) as exc:
            raise self._fail(str(exc)) from exc

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
            raise self._wrong_type(key, what, v)
        return v

    def _float(self, key: str, v: Union[int, float]) -> float:
        try:
            return float(v)
        except OverflowError:  # an int past the float range
            raise self._fail(f"field '{key}' is out of range, got "
                             f"{reprlib.repr(v)}") from None

    def take_float(self, key: str, required: bool = True,
                   default: Optional[float] = None) -> Optional[float]:
        v = self._take_typed(key, required, default, (int, float), "a number")
        return None if v is None else self._float(key, v)

    def take_positive(self, key: str, required: bool = True,
                      default: Optional[float] = None) -> Optional[float]:
        v = self.take_float(key, required, default)
        if v is not None and not (math.isfinite(v) and v > 0):
            raise self._fail(f"field '{key}' must be finite and > 0, got {v}")
        return v

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

    with sec.checking():
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
            kinds = ", ".join(k.value for k in ElementKind)
            raise sec._fail(f"field 'kind' must be one of {kinds}; "
                            f"got {kind!r}")
        sec.finish(strict)
        return ActuatorModel(element=element, k_t=k_t,
                             rated_force=rated_force,
                             rated_speed=rated_speed, label=label)


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
    delta = sec.take_positive("delta", required=False, default=0.087)
    sec.finish(strict)
    with sec.checking():
        joint = AntagonisticJointConfig(actuator_1=a1, actuator_2=a2, R=R,
                                        mu_s=mu_s, inertia_I=inertia)
    return LoadedJoint(joint=joint, delta=delta)


_LINK_NAMES = ("b", "c", "d")


def _parse_chain(doc: dict, path: Path, strict: bool) -> KinematicChain:
    sec = _Section(doc.get("chain"), path, "chain")
    links_raw = sec.take("link_lengths")
    links = _Section(links_raw, path, "chain.link_lengths")
    lengths = {name: links.take_float(name) for name in _LINK_NAMES}
    links.finish(strict)

    rom_raw = sec.take("rom_deg", required=False)
    rom_deg = {}
    if rom_raw is not None:
        rsec = _Section(rom_raw, path, "chain.rom_deg")
        for name in list(rom_raw):
            pair = rsec.take(name)
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or any(isinstance(v, bool) or not isinstance(v, (int, float))
                           for v in pair)):
                raise rsec._wrong_type(name, "a [lo, hi] pair of numbers",
                                       pair)
            rom_deg[name] = tuple(rsec._float(name, v) for v in pair)
        rsec.finish(strict)

    rows_raw = sec.take("rows", required=False)
    sec.finish(strict)
    if rows_raw is None:
        with sec.checking():
            return default_arm(rom_deg={**DEFAULT_ROM_DEG, **rom_deg},
                               **lengths)

    if not isinstance(rows_raw, list):
        raise sec._wrong_type("rows", "a list", rows_raw)
    rows = []
    for i, rdata in enumerate(rows_raw, start=1):
        rsec = _Section(rdata, path, f"chain.rows[{i}]")
        a = _length_field(rsec, "a", lengths)
        d = _length_field(rsec, "d", lengths)
        alpha = math.radians(rsec.take_float("alpha_deg"))
        offset = math.radians(rsec.take_float("theta_offset_deg"))
        sign = rsec.take_int("joint_sign", required=False, default=+1)
        name = rsec.take_str("joint")
        rsec.finish(strict)
        with rsec.checking():
            rows.append(DHRow(a=a, d=d, alpha=alpha, theta_offset=offset,
                              joint_sign=sign, joint_name=name))
    # the default ranges of the rows' joints, then the file's own
    names = {row.joint_name for row in rows}
    rom_deg = {**{n: r for n, r in DEFAULT_ROM_DEG.items() if n in names},
               **rom_deg}
    rom = {name: (math.radians(lo), math.radians(hi))
           for name, (lo, hi) in rom_deg.items()}
    with sec.checking():
        return KinematicChain(rows=tuple(rows), link_lengths=lengths, rom=rom)


def _length_field(rsec: _Section, key: str, lengths: Dict[str, float]) -> float:
    """A D-H length is a number in meters or a named link length."""
    v = rsec._take_typed(key, False, 0.0, (int, float, str),
                         "a number or a link-length name")
    if not isinstance(v, str):
        return rsec._float(key, v)
    if v not in lengths:
        raise rsec._fail(f"'{key}' names unknown link length {v!r}")
    return lengths[v]


def _parse_lift(doc: dict, path: Path, strict: bool) -> LiftScenario:
    sec = _Section(doc.get("lift"), path, "lift")
    label = sec.take_str("label", required=False, default=path.stem)
    act_names = sec.take("actuators")
    if (not isinstance(act_names, list) or not act_names
            or not all(isinstance(n, str) for n in act_names)):
        raise sec._wrong_type("actuators", "a nonempty list of actuator "
                              "config files", act_names)
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
    with sec.checking():
        scenario = LiftScenario(actuators=actuators, label=label, **kwargs)
    if scenario.t_max / scenario.dt + 1 > MAX_RUN_POINTS:
        raise sec._fail(f"t_max/dt allows more than {MAX_RUN_POINTS} steps")
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
        raise sec._fail(f"unknown kind {kind_name!r}; one of "
                        f"{', '.join(EXPERIMENTS)}")
    config_path = _resolve(sec.take_str("config"), path.parent)
    config_doc = _read_yaml(config_path)
    config_type = _config_section(config_doc, config_path, strict)
    if config_type != kind.config:
        raise sec._fail(f"{config_path} is {_a(config_type)} config; "
                        f"{kind.name} needs {_a(kind.config)} config")
    model = CONFIG_TYPES[kind.config].parse(config_doc, config_path, strict)

    sweeps: Dict[str, GridSpec] = {}
    sweep_raw = sec.take("sweep", required=False, default={})
    ssec = _Section(sweep_raw, path, "experiment.sweep")
    for var in kind.sweeps:
        gdata = ssec.take(var)
        gsec = _Section(gdata, path, f"experiment.sweep.{var}")
        with gsec.checking():
            sweeps[var] = GridSpec(start=gsec.take_float("start"),
                                   stop=gsec.take_float("stop"),
                                   step=gsec.take_float("step"))
        gsec.finish(strict)
    ssec.finish(strict)

    output = sec.take_str("output")
    # without a separator a name is never absolute; without a dot the
    # format suffix is the only one
    if not output or any(c in output for c in "/\\.\0"):
        raise sec._fail(f"field 'output' must be a nonempty file name "
                        f"without '/', '\\', '.' or NUL, got {output!r}")
    fmt = sec.take_str("format", required=False, default="csv")
    seed = sec.take_int("seed", required=False)
    delta = sec.take_positive("delta", required=False)
    n = sec.take_int("n", required=False)
    sec.finish(strict)
    if fmt not in ("csv", "json"):
        raise sec._fail(f"format must be csv or json, got {fmt!r}")
    if kind.sampled and not 1 <= (n or 0) <= MAX_RUN_POINTS:
        raise sec._fail(f"{kind.name} needs 1 <= n <= {MAX_RUN_POINTS}")
    if math.prod(g.count() for g in sweeps.values()) > MAX_RUN_POINTS:
        raise sec._fail(f"the sweep grid has more than {MAX_RUN_POINTS} "
                        f"points")
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
    return CONFIG_TYPES[_config_section(doc, path, strict)].parse(doc, path,
                                                                  strict)


def _config_section(doc: dict, path: Path, strict: bool) -> str:
    """The one top-level section of a config document, which names its
    type; strict also rejects any other top-level key."""
    kinds = [k for k in CONFIG_TYPES if k in doc]
    if len(kinds) != 1:
        raise ConfigError(path, f"expected exactly one of the sections "
                                f"{sorted(CONFIG_TYPES)}, found {kinds}")
    if strict:
        extra = sorted(set(doc) - set(kinds), key=str)
        if extra:
            raise ConfigError(path, f"unknown top-level keys {extra}")
    return kinds[0]


def _a(word: str) -> str:
    return ("an " if word[0] in "aeiou" else "a ") + word


# --------------------------------------------------------------------------
# emission


def _check_columns(path: Path, header: Sequence[str],
                   columns: Sequence, first_row: int = 0) -> None:
    """The schema of a table, checked on its columns: every name ends in a
    known unit suffix, all columns have the same length, *_label cells are
    nonempty strings and every other cell is finite. Raises SchemaError,
    prefixed with path, on the first violation; the columns hold the rows
    after the first first_row of the table."""
    if not header or len(columns) != len(header):
        raise SchemaError(f"{path}: {len(header)} column names for "
                          f"{len(columns)} columns")
    n = len(columns[0])
    for name, col in zip(header, columns):
        if not name.endswith(UNIT_SUFFIXES):
            raise SchemaError(f"{path}: column '{name}' lacks a known unit "
                              f"suffix {UNIT_SUFFIXES}")
        if len(col) != n:
            raise SchemaError(f"{path}: column '{name}' has {len(col)} "
                              f"cells, expected {n}")
        if name.endswith("_label"):
            bad = next((i for i, s in enumerate(col)
                        if not (isinstance(s, str) and s)), None)
            what = "empty label"
        else:
            finite = np.isfinite(col)
            bad = None if finite.all() else int(np.argmin(finite))
            what = "non-finite cell"
        if bad is not None:
            raise SchemaError(f"{path}: row {first_row + bad + 1}: {what} "
                              f"in '{name}'")


def _csv_cell(s: str) -> str:
    """A string cell exactly as csv.writer quotes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([s])
    return buf.getvalue()[:-1]


# A block of rows is laid out as uint8 slots, a fixed number per cell, that
# hold its text or _FILL; dropping the _FILL bytes leaves the rows. 0xFF is
# in no UTF-8 text, so a label slot may hold any quoted label.
_FILL = b"\xff"

# a block of a table's rows, rendered at once by one numpy pass: at most
# _BLOCK_ROWS rows and _BLOCK_CELLS cells (a Workspace block of three
# columns), so a wide table, such as the Lift's six, holds no more cells
# and temporaries at once
_BLOCK_ROWS = 4096
_BLOCK_CELLS = 3 * _BLOCK_ROWS


def _row_blocks(columns: Sequence, render: Callable[[list], str]
                ) -> Iterator[str]:
    """The text of a table's rows, render of each block's slice of the
    columns in turn, so only one block of cells and text exists at once."""
    step = min(_BLOCK_ROWS, max(1, _BLOCK_CELLS // len(columns)))
    for start in range(0, len(columns[0]), step):
        yield render([col[start:start + step] for col in columns])


# A float cell with 1e-4 <= |x| < 10**(X_max + 1) is written in fixed
# notation: its exponent X = floor(log10|x|) is -4..X_max and its digits
# are an integer N of a fixed number of digits, trailing zeros dropped. Its
# slots: a _FILL, the sign, "0.000" (for X < 0), then each digit of N
# followed by a slot for the decimal point, and the format's separator in
# the last slots.
_DIGIT0 = 8                                # slot of N's first digit

# 10**k for k = 0..20, each exactly a float, and Veltkamp's split of each
# into two halves of at most 26 bits
_POW10 = np.array([float(10 ** k) for k in range(21)])


def _split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: hi + lo == a, each with at most 26 significant
    bits, so the product of two halves is exact."""
    c = a * 134217729.0                    # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digit_tables() -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """By 4-digit group 0000..9999: its ASCII digits in the even bytes of a
    uint64, to be or-ed into the digit slots of a cell; and for the group
    at digits 4j..4j+3 of N (j = 0..4), the index in N of its last nonzero
    digit (0 for the group 0000)."""
    g = np.arange(10000, dtype=np.int16)  # small temporaries at import
    digits = np.zeros((10000, 8), np.uint8)
    digits[:, ::2] = (g[:, None] // np.array([1000, 100, 10, 1], np.int16)
                      % 10 + ord("0"))
    last = 3 - sum(g % 10 ** k == 0 for k in (1, 2, 3))
    return (digits.view(np.uint64).ravel(),
            tuple(np.where(g > 0, last + 4 * j, 0).astype(np.uint8)
                  for j in range(5)))


_DIGITS4, _LAST_DIGIT = _digit_tables()


def _digit_groups(N: np.ndarray, n_digits: int) -> List[np.ndarray]:
    """The n_digits digits of N in 4-digit groups from the first; a short
    last group is padded with zeros."""
    groups, head = [], None         # head: N's digits before the group
    for k in range(n_digits - 4, -4, -4):
        top = N // 10 ** k if k > 0 else N      # N's digits through it
        g = top if head is None else top - head * 10 ** min(4, 4 + k)
        groups.append(g if k >= 0 else g * 10 ** -k)
        head = top
    return groups


def _cell_slots(n_digits: int, x_max: int, width: int, sep: bytes,
                point_zero: bool) -> np.ndarray:
    """The width slots of a float cell by (sign, X + 4, index of N's last
    nonzero digit), as width // 8 uint64: the fixed characters in place, 0
    in the digit slots to keep and _FILL everywhere else. With point_zero
    an integral value ends in ".0"."""
    t = np.full((2, x_max + 5, n_digits, width), ord(_FILL), np.uint8)
    t[1, ..., 1] = ord("-")
    t[..., width - len(sep):] = np.frombuffer(sep, np.uint8)
    for X in range(-4, x_max + 1):
        for last in range(n_digits):
            slots = t[:, X + 4, last]
            keep = last if X < 0 else max(last, X + point_zero)
            if X < 0:
                slots[:, 2:4] = np.frombuffer(b"0.", np.uint8)
                slots[:, 4:3 - X] = ord("0")
            elif keep > X:
                slots[:, _DIGIT0 + 2 * X + 1] = ord(".")
            slots[:, _DIGIT0:_DIGIT0 + 2 * keep + 1:2] = 0
    return t.view(np.uint64)


def _significand_12g(a: np.ndarray):
    """(ok, X, N) for "%.12g" of |x| = a: N = rint(a * 10**(11-X)), the
    correctly rounded 12-digit significand, where ok.

    Exactness. The power of ten is exact, so p = a * 10**(11-X) is rounded
    once and is off the true product by at most 2**-53 * 1e12 ~ 1.1e-4.
    Outside the guard band |frac(p) - 0.5| <= 1e-3 the nearest integer to p
    is thus the nearest to the true product. The guard clears ok for a
    outside [1e-4, 1e11) (zero, other notations and non-finite values
    included), p near a tie, N that rounds up to 1e12 (the next power of
    ten), and p < 1e11, where log10 rounded up to X.
    """
    ok = (a >= 1e-4) & (a < 1e11)
    a = np.where(ok, a, 1.0)
    X = np.clip(np.floor(np.log10(a)), -4, 10).astype(np.intp)
    p = a * _POW10[11 - X]
    N = np.rint(p)
    ok &= (p >= 1e11) & (N < 1e12) & (np.abs(p - np.floor(p) - 0.5) > 1e-3)
    return ok, X, np.where(ok, N, 1e11).astype(np.int64)


def _significand_repr(a: np.ndarray):
    """(ok, X, N) for repr of |x| = a: where ok, N is the 17-digit integer
    whose digits, trailing zeros dropped, are the shortest that read back
    as a, the nearest to a of that length (a tie to the even one).

    The method. With s = 16 - X, P = a * 10**s lies in [1e16, 1e17), and
    Dekker's product gives it exactly as hi + lo, hi an integer; N17 = hi +
    rint(lo) = P + R, rounded half to even since hi is even. A decimal
    reads back as a if it lies within the half gap to a's neighbours,
    H = 2**(e-54) * 10**s exactly, of P. D15 and D16, P rounded to a
    multiple of 100 and of 10 on N17's last digits and the sign of R (a
    tie, R == 0 and N17 ending in 5, to the even multiple of 10), lie at
    exact distances from P. At most one multiple of 100 lies within
    H < 11.2 of P, so if D15 does, its digits are the shortest; else D16
    if it lies within H; else N17.

    The guard clears ok for a outside [1e-4, 1e16) (zero and the exponent
    notation included), a power of two (the float below is nearer than H),
    a distance within 1e-6 of H, P outside [1e16, 1e17) (log10 rounded
    across a power of ten) and N that rounds up to 1e17.
    """
    ok = (a >= 1e-4) & (a < 1e16)
    a = np.where(ok, a, 1.0)
    X = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.intp)
    s = 16 - X
    b = _POW10.take(s)
    hi = a * b
    ah, al = _split(a)
    bh, bl = _POW10_HI.take(s), _POW10_LO.take(s)
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    rlo = np.rint(lo)
    R = rlo - lo
    N17 = hi.astype(np.int64) + rlo.astype(np.int64)
    m, e = np.frexp(a)
    H = np.ldexp(b, e - 54)
    r100 = N17 % 100
    r10 = r100 % 10
    off15 = np.where(r100 > 50, 100, 0) - r100  # at r100 == 50, never in H
    even_up = (R == 0) & (r100 // 10 % 2 == 1)   # a tie, to the even one
    off16 = np.where((r10 > 5) | (r10 == 5) & ((R < 0) | even_up), 10, 0) - r10
    d15, d16 = np.abs(off15 + R), np.abs(off16 + R)
    in15, in16 = d15 < H, d16 < H
    N = N17 + np.where(in15, off15, np.where(in16, off16, 0))
    unsure = (np.abs(d15 - H) < 1e-6) | ~in15 & (np.abs(d16 - H) < 1e-6)
    ok &= ((hi < 1e17) & ((hi > 1e16) | ((hi == 1e16) & (lo >= 0)))
           & (m != 0.5) & ~unsure & (N < 10 ** 17))
    return ok, X, N


class _Format(NamedTuple):
    """How a data file format lays out a block of rows in slots."""
    significand: Callable      # |x| -> (ok, X, N), as _significand_12g
    python: Callable[[float], bytes]   # a cell's text where ok is False
    quote: Callable[[str], str]        # a *_label cell's text
    slots: np.ndarray          # of a float cell, by _cell_slots
    sep: bytes                 # the last slots of a cell
    lead: bytes                # before each row
    end: bytes                 # after each row, in its last cell's sep


_CSV = _Format(_significand_12g, lambda v: b"%.12g" % v, _csv_cell,
               _cell_slots(12, 10, 32, b",", False), b",", b"", b"\n")
# json.dump(indent=2) puts one cell on each line, a row in brackets
_JSON = _Format(_significand_repr, lambda v: b"%r" % v, json.dumps,
                _cell_slots(17, 15, 56, b",\n      ", True), b",\n      ",
                b",\n    [\n      ", b"\n    ]")


def _float_cells(x: np.ndarray, form: _Format) -> np.ndarray:
    """The slots of each cell of a float array as form renders it, followed
    by its separator: uint8 of shape x.shape + (cell width,). Cells with
    1e-4 <= |x| < 10**(X_max + 1) get their digits from form.significand;
    the cells its guard flags go to Python (form.python)."""
    _, n_exp, n_digits, words = form.slots.shape
    ok, X, N = form.significand(np.abs(x))
    groups = _digit_groups(N, n_digits)
    last = reduce(np.maximum, map(np.take, _LAST_DIGIT, groups))
    cells = form.slots.reshape(-1, words).take(
        (np.signbit(x) * n_exp + X + 4) * n_digits + last, axis=0)
    for j, g in enumerate(groups, start=1):
        cells[..., j] |= _DIGITS4.take(g)
    cells = cells.view(np.uint8)
    width = cells.shape[-1] - len(form.sep)
    bad = np.nonzero(~ok)               # the cells Python renders
    text = b"".join(form.python(v).ljust(width, _FILL)
                    for v in x[bad].tolist())
    cells[(*bad, slice(width))] = np.frombuffer(text, np.uint8).reshape(
        -1, width)
    return cells


def _label_slots(labels: Sequence[str], form: _Format) -> np.ndarray:
    """One row of slots per label: its quoted UTF-8 bytes, _FILL, then the
    separator."""
    quoted = [form.quote(s).encode() for s in labels]
    width = max(map(len, quoted), default=0)
    return np.frombuffer(b"".join(q.ljust(width, _FILL) + form.sep
                                  for q in quoted),
                         np.uint8).reshape(len(quoted), width + len(form.sep))


def _slot_rows(form: _Format, slots: Sequence[Optional[np.ndarray]],
               block: list) -> str:
    """The rows of a block, as form lays them out. Its float columns are
    rendered by _float_cells together; a *_label column holds indices into
    its slots, the _label_slots of its distinct labels (None for a float
    column)."""
    m = len(block[0])
    floats = [col for col, s in zip(block, slots) if s is None]
    cells = (_float_cells(np.stack(floats, axis=-1), form) if floats
             else np.empty((m, 0, 8 * form.slots.shape[-1]), np.uint8))
    if len(floats) == len(block) and not form.lead:   # the cells are the rows
        row = cells.reshape(m, -1)
    else:
        parts = iter(cells.swapaxes(0, 1))
        lead = np.broadcast_to(np.frombuffer(form.lead, np.uint8),
                               (m, len(form.lead)))
        row = np.concatenate([lead] + [
            next(parts) if s is None else s.take(col, axis=0)
            for col, s in zip(block, slots)], axis=1)
    row[:, -len(form.sep):] = np.frombuffer(
        form.end.ljust(len(form.sep), _FILL), np.uint8)
    return row.tobytes().translate(None, _FILL).decode()


@contextmanager
def _replacing(path: Path,
               newline: Optional[str] = None) -> Iterator[TextIO]:
    """A UTF-8 text file written under a temporary name in path's directory
    and moved onto path when the block ends; on an exception it is removed,
    so a failed write leaves no truncated file at path."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


def _write_rows(path: Path, header: Sequence[str], columns: Sequence,
                fmt: str) -> None:
    """Write a table from its columns as CSV (cells formatted "%.12g") or
    as JSON ({"columns", "rows"}, as json.dump with indent=2 and sorted keys
    lays it out, float cells as repr). The schema is checked before the
    file is opened.

    columns are float arrays, or lists of str for *_label columns. The rows
    are rendered by _row_blocks a block at a time and streamed to the file,
    so neither the table's cells nor its text are held whole. Both formats
    render a block by numpy in slots (_slot_rows): each float cell from its
    correctly rounded 12-digit significand (CSV) or its shortest round-trip
    digits (JSON), each label from its distinct labels' slots. Python
    renders only the float cells that _significand_12g or _significand_repr
    flags: outside [1e-4, 1e11) or [1e-4, 1e16) in magnitude, or where the
    numpy digits could be wrong. The file appears at path only once it is
    complete.
    """
    _check_columns(path, header, columns)
    form = _CSV if fmt == "csv" else _JSON
    cells, slots = [], []
    for name, col in zip(header, columns):
        if name.endswith("_label"):
            labels = list(dict.fromkeys(col))
            index = {s: i for i, s in enumerate(labels)}
            cells.append(np.array([index[s] for s in col], dtype=np.intp))
            slots.append(_label_slots(labels, form))
        else:
            cells.append(np.asarray(col, dtype=float))
            slots.append(None)
    blocks = _row_blocks(cells, partial(_slot_rows, form, slots))
    if fmt == "csv":
        with _replacing(path, newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            fh.writelines(blocks)
        return
    # json.dump(indent=2) puts "rows" last (sorted keys)
    head, tail = json.dumps({"columns": list(header), "rows": []}, indent=2,
                            sort_keys=True).rsplit("[]", 1)
    with _replacing(path) as fh:
        fh.write(head + "[")
        first = next(blocks, None)
        if first is not None:
            fh.write(first[1:])
            fh.writelines(blocks)
            fh.write("\n  ")
        fh.write("]" + tail + "\n")


def validate_csv_schema(path: Union[str, Path]) -> None:
    """Check a CSV file on disk against the contract of emitted tables:
    the checks only a file can fail (a header row, rows of the header's
    length, numbers that parse outside *_label columns), then the writer's
    own _check_columns on the columns read. Rows count from the first after
    the header. Raises SchemaError on the first violation.

    The rows are read and checked _BLOCK_ROWS at a time, so memory stays
    one block's, however long the file."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise SchemaError(f"{path}: missing header row")
            for start in count(0, _BLOCK_ROWS):
                rows = list(islice(reader, _BLOCK_ROWS))
                _check_rows(path, header, rows, start)
                if len(rows) < _BLOCK_ROWS:
                    return
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:  # such as a field past csv's size limit
        raise SchemaError(f"{path}: CSV error: {exc}") from exc


def _check_rows(path: Path, header: List[str], rows: List[List[str]],
                start: int) -> None:
    """validate_csv_schema's checks of the rows after the first start."""
    for i, row in enumerate(rows, start=start + 1):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {i}: expected {len(header)} "
                              f"cells, got {len(row)}")
    columns = []
    for j, name in enumerate(header):
        col = [row[j] for row in rows]
        if not name.endswith("_label"):
            for i, cell in enumerate(col):
                try:
                    col[i] = float(cell)
                except ValueError:
                    raise SchemaError(f"{path}: row {start + i + 1}: "
                                      f"non-numeric cell {cell!r} in "
                                      f"'{name}'") from None
        columns.append(col)
    _check_columns(path, header, columns, start)


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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ExperimentError(f"{out_dir}: cannot create the output "
                              f"directory: {exc.strerror or exc}") from exc
    kind = spec.experiment
    if not isinstance(spec.model, CONFIG_TYPES[kind.config].model):
        raise ExperimentError(f"{kind.name} needs a {kind.config} config, "
                              f"got {type(spec.model).__name__}")
    spec = replace(spec, fmt=fmt or spec.fmt,
                   seed=spec.seed if seed is None else seed)
    try:
        header, columns, summary = kind.run(spec)
    except (ValueError, ArithmeticError) as exc:  # a model fault
        raise ExperimentError(f"{kind.name}: {exc}") from exc

    out_path = out_dir / f"{spec.output}.{spec.fmt}"
    summary_path = out_dir / f"{spec.output}_summary.json"
    summary = {"experiment": kind.name, "rows": len(columns[0]), **summary}
    path = out_path
    try:
        _write_rows(out_path, header, columns, spec.fmt)
        path = summary_path
        with _replacing(summary_path) as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ExperimentError(f"{path}: cannot write: "
                              f"{exc.strerror or exc}") from exc
    return ExperimentResult(output_path=out_path, summary_path=summary_path,
                            summary=summary)


def _run_force_displacement(spec: ExperimentSpec):
    actuator = spec.model
    bp = actuator.d_max_total
    pts = np.array(_merge_exact(spec.sweeps["d"].points(), [bp]))
    force = _sweep_eval(lambda d: force_from_displacement(actuator, d),
                        "force_from_displacement", pts)
    slope_below = actuator.k_et
    if slope_below is None:  # tabulated: the knot segment ending at bp
        F, d = actuator.knots_F, actuator.knots_d
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
    rng = controllable_stiffness_range(joint, delta)
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
                    "Config files resolve against the referencing file's "
                    f"directory, ${ENV_CONFIG_DIR}, the current directory, "
                    "then the bundled data directory.")
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

    try:
        # an overflow fails a check on its result; no numpy warning lines
        with np.errstate(all="ignore"):
            if args.command == "validate":
                obj = parse_config(_resolve(args.config, None), args.strict)
            else:
                spec = parse_experiment(_resolve(args.spec, None),
                                        args.strict)
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
