"""Config ingestion: path resolution, YAML loading and the typed parsers.

YAML config files describe actuators, joints, kinematic chains, lift
scenarios and experiment specs (one top-level section names the type).
This module reads a file (_read_config, _load_table_csv for a tabulated
curve) and builds the model of each type but the experiment spec, whose
parser lives in cli with the experiment table.

Conventions:
  * a config error is one line, `<path>: section '<name>': <message>` for
    anything inside a section (built by _Section), else `<path>: <message>`,
  * config paths resolve against the referencing file's directory, then
    $TENDONSIM_CONFIG_DIR, then the current directory, then the bundled
    data directory.

The bundled data directory ships reference parameter sets for the two
prototype actuators, a tabulated nonlinear stand-in, joint/arm/lift
scenarios, and one experiment spec per experiment kind.
"""

from __future__ import annotations

import csv
import io
import math
import os
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

import yaml

from .dynamics import LiftScenario
from .elastic import ActuatorModel, ElasticElementSpec, ElementKind
from .joint import AntagonisticJointConfig
from .kinematics import DHRow, KinematicChain, default_arm, DEFAULT_ROM_DEG
from .yaml12 import _PyYamlLoader, _YamlLoader

DATA_DIR = Path(__file__).parent / "data"
ENV_CONFIG_DIR = "TENDONSIM_CONFIG_DIR"

# Most points one run may evaluate: the points of its sweep grid (the
# product of both axes for TorqueSurface), its Workspace n or its Lift
# steps. 100x the largest bundled run (Workspace, n = 1e5). `tendonsim run`
# of a Workspace peaks at 63 MB RSS for n = 1e6 and 113 MB for n = 3e6, CSV
# or JSON (32 MB after import; the points take 24 B each), so near 290 MB
# at this size. Checked on the computed size, before a run.
MAX_RUN_POINTS = 10_000_000

# the top-level section of each config type: the keys of cli.CONFIG_TYPES
CONFIG_SECTIONS = ("actuator", "joint", "chain", "lift", "experiment")


class ConfigError(Exception):
    """A config file failed to parse or validate."""

    def __init__(self, path: Union[str, Path], message: str) -> None:
        self.path = str(path)
        super().__init__(f"{path}: {message}")


# --------------------------------------------------------------------------
# config plumbing


def _resolve(name: Union[str, Path], base_dir: Optional[Path]) -> Path:
    """Find a config file: absolute, then relative to the referencing file,
    then $TENDONSIM_CONFIG_DIR, then the current directory, then the bundled
    data directory. os.path.isfile is False, not an OSError, for a name the
    system rejects, such as one past the file-name limit."""
    if os.path.isabs(name):
        if os.path.isfile(name):
            return Path(name)
        raise ConfigError(name, "file not found")
    dirs = [d for d in (base_dir, os.environ.get(ENV_CONFIG_DIR),
                        os.getcwd(), DATA_DIR) if d]
    for d in dirs:
        cand = os.path.join(d, name)
        if os.path.isfile(cand):
            return Path(cand)
    raise ConfigError(name, "file not found; tried "
                      + ", ".join(str(Path(d, name)) for d in dirs))


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
        shallow = (sum(map(data.count, _NESTING_BYTES))
                   <= _C_LOADER_MAX_NESTING_BYTES)
        stream = io.BytesIO(data)
        stream.name = fh.name   # so that error marks name the file
        doc = yaml.load(stream, Loader=_YamlLoader if shallow
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


def _read_config(path: Path) -> Tuple[str, dict]:
    """A config file's type, its one top-level section, and its document,
    which has no other top-level key. Every file is read so."""
    doc = _read_yaml(path)
    kinds = [k for k in doc if k in CONFIG_SECTIONS]
    if len(kinds) != 1:
        raise ConfigError(path, f"expected exactly one of the sections "
                                f"{sorted(CONFIG_SECTIONS)}, found {kinds}")
    if len(doc) > 1:
        extra = sorted(set(doc) - set(kinds), key=str)
        raise ConfigError(path, f"unknown top-level keys {extra}")
    return kinds[0], doc


class _Section:
    """A config mapping with typed field access, and errors that name a
    missing field or unknown keys. _fail builds every error about the
    section, `<path>: section '<name>': <message>`, also those raised by
    the model built in its `with` block."""

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

    def __enter__(self) -> "_Section":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        # a ValueError or ArithmeticError of the block (a model constructor's
        # check, an overflow) is the section's error
        if isinstance(exc, (ValueError, ArithmeticError)):
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
        if not _is_a(v, types):
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

    def finish(self) -> None:
        extra = sorted(set(self.data) - self.used, key=str)
        if extra:
            raise self._fail(f"unknown keys {extra}")

    def read_config(self, path: Path, want: str, user: str) -> dict:
        """The config file at path that this section names for user: a
        file of another type than want is the section's error."""
        kind, doc = _read_config(path)
        if kind != want:
            raise self._fail(_wrong_type_file(str(path), kind, want, user))
        return doc


def _is_a(v: object, types) -> bool:
    """v is of one of types, where a bool is not a number."""
    return isinstance(v, types) and not isinstance(v, bool)


def _wrong_type_file(name: str, kind: str, want: str, user: str) -> str:
    """The error of a config file, called name, of type kind where user
    needs want."""
    a, b = (("an " if w[0] in "aeiou" else "a ") + w for w in (kind, want))
    return f"{name} is {a} config; {user} needs {b} config"


def _load_table_csv(path: Path) -> Tuple[Tuple[float, float], ...]:
    """Two-column (displacement_mm, force_N) curve with a mandatory header."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
                    d, f = float(row[0]), float(row[1])
                except ValueError as exc:
                    raise ConfigError(path, f"line {i}: {exc}") from exc
                if not (math.isfinite(d) and math.isfinite(f)):
                    raise ConfigError(path, f"line {i}: cells must be "
                                            f"finite, got {row}")
                rows.append((d, f))
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


def _parse_actuator(doc: dict, path: Path) -> ActuatorModel:
    sec = _Section(doc.get("actuator"), path, "actuator")
    label = sec.take_str("label", required=False, default=path.stem)
    kind = sec.take_str("kind")
    k_t = sec.take_float("k_t")
    rated_force = sec.take_float("rated_force")
    rated_speed = sec.take_float("rated_speed")

    with sec:
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
        sec.finish()
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


def _actuator_reader(sec: _Section):
    """A function from an actuator file name in sec, resolved against its
    file, to its parsed model. Models are kept by the path _resolve returns,
    so a file named twice, as by a symmetric pair, is read (with its table)
    once, and both names get the same model. A symlinked or `..` spelling of
    the same file is another path: the file is read again, into an equal
    model (but for a label defaulted from a different file name)."""
    parsed: Dict[Path, ActuatorModel] = {}
    base_dir = sec.path.parent

    def read(name: str) -> ActuatorModel:
        path = _resolve(name, base_dir)
        if path not in parsed:
            doc = sec.read_config(path, "actuator", sec.name)
            parsed[path] = _parse_actuator(doc, path)
        return parsed[path]
    return read


def _parse_joint(doc: dict, path: Path) -> LoadedJoint:
    sec = _Section(doc.get("joint"), path, "joint")
    read_actuator = _actuator_reader(sec)
    a1 = read_actuator(sec.take_str("actuator_1"))
    a2 = read_actuator(sec.take_str("actuator_2"))
    R = sec.take_float("R")
    mu_s = sec.take_float("mu_s")
    inertia = sec.take_float("inertia_I")
    delta = sec.take_positive("delta", required=False, default=0.087)
    sec.finish()
    with sec:
        joint = AntagonisticJointConfig(actuator_1=a1, actuator_2=a2, R=R,
                                        mu_s=mu_s, inertia_I=inertia)
    return LoadedJoint(joint=joint, delta=delta)


_LINK_NAMES = ("b", "c", "d")


def _parse_chain(doc: dict, path: Path) -> KinematicChain:
    sec = _Section(doc.get("chain"), path, "chain")
    links_raw = sec.take("link_lengths")
    links = _Section(links_raw, path, "chain.link_lengths")
    lengths = {name: links.take_float(name) for name in _LINK_NAMES}
    links.finish()

    rom_raw = sec.take("rom_deg", required=False)
    rom_deg = {}
    if rom_raw is not None:
        rsec = _Section(rom_raw, path, "chain.rom_deg")
        for name in list(rom_raw):
            pair = rsec.take(name)
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(_is_a(v, (int, float)) for v in pair)):
                raise rsec._wrong_type(name, "a [lo, hi] pair of numbers",
                                       pair)
            rom_deg[name] = tuple(rsec._float(name, v) for v in pair)
        rsec.finish()

    rows_raw = sec.take("rows", required=False)
    if rows_raw is not None and not isinstance(rows_raw, list):
        raise sec._wrong_type("rows", "a list", rows_raw)
    sec.finish()

    rows = []
    for i, rdata in enumerate(rows_raw or (), start=1):
        rsec = _Section(rdata, path, f"chain.rows[{i}]")
        a = _length_field(rsec, "a", lengths)
        d = _length_field(rsec, "d", lengths)
        alpha = math.radians(rsec.take_float("alpha_deg"))
        offset = math.radians(rsec.take_float("theta_offset_deg"))
        sign = rsec.take_int("joint_sign", required=False, default=+1)
        name = rsec.take_str("joint")
        rsec.finish()
        with rsec:
            rows.append(DHRow(a=a, d=d, alpha=alpha, theta_offset=offset,
                              joint_sign=sign, joint_name=name))
    if rows_raw is None:
        with sec:
            rows = default_arm(**lengths).rows
    # the default ranges of the rows' joints, then the file's own
    names = {row.joint_name for row in rows}
    rom_deg = {**{n: r for n, r in DEFAULT_ROM_DEG.items() if n in names},
               **rom_deg}
    rom = {name: (math.radians(lo), math.radians(hi))
           for name, (lo, hi) in rom_deg.items()}
    with sec:
        return KinematicChain(rows=tuple(rows), rom=rom)


def _length_field(rsec: _Section, key: str, lengths: Dict[str, float]) -> float:
    """A D-H length is a number in meters or a named link length."""
    v = rsec._take_typed(key, False, 0.0, (int, float, str),
                         "a number or a link-length name")
    if not isinstance(v, str):
        return rsec._float(key, v)
    if v not in lengths:
        raise rsec._fail(f"'{key}' names unknown link length {v!r}")
    return lengths[v]


def _parse_lift(doc: dict, path: Path) -> LiftScenario:
    sec = _Section(doc.get("lift"), path, "lift")
    label = sec.take_str("label", required=False, default=path.stem)
    act_names = sec.take("actuators")
    if (not isinstance(act_names, list) or not act_names
            or not all(isinstance(n, str) for n in act_names)):
        raise sec._wrong_type("actuators", "a nonempty list of actuator "
                              "config files", act_names)
    actuators = tuple(map(_actuator_reader(sec), act_names))
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
    sec.finish()
    with sec:
        scenario = LiftScenario(actuators=actuators, label=label, **kwargs)
    _check_lift_steps(scenario, sec._fail)
    return scenario


def _check_lift_steps(scenario: LiftScenario,
                      fail: Callable[[str], Exception]) -> None:
    """Raise fail(message) if the lift may take more than MAX_RUN_POINTS
    steps. The lift parser and a run's spec check both apply it."""
    if scenario.t_max / scenario.dt + 1 > MAX_RUN_POINTS:
        raise fail(f"t_max/dt allows more than {MAX_RUN_POINTS} steps")
