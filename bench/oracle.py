"""Reference checks for the benchmark's outputs, built from raw config files.

Nothing here imports tendonsim. Every expected value is recomputed from the
YAML/CSV constants with the closed forms the package documents, so a check
fails when the program's numbers move, not when they differ from a stored
copy of today's files.

Tolerances follow from each method's stated accuracy:

* CSV cells are emitted with format '.12g' (relative rounding <= 5e-13);
  JSON cells are exact. RTOL = 1e-11 leaves 20x headroom for that rounding
  and for float reassociation, and sits 1e5 below the 1e-6 perturbation
  the self-test must catch.
* The tabulated inverse may stop once |d(F) - d| <= 1e-12 mm. The force map
  never rises faster than k_t, so its force error is at most k_t * 1e-12 N.
  An exact inverse passes the same check.
* The lift advances t by repeated addition of dt. Each addition rounds by at
  most eps*t/2, so row i may sit i*eps*t from i*dt; t = i*dt passes too.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import yaml

EPS = float(np.finfo(float).eps)
RTOL = 1e-11
BISECTION_STOP_MM = 1e-12
PERTURBATION = 1e-6   # relative change of one cell in the self-test

DEFAULT_DELTA = 0.087  # rad, joint.delta when a joint file omits it
DEFAULT_GRAVITY = 9.81
MERGE_TOL = 1e-9       # grid points this close to a breakpoint collapse onto it
COORD_ATOL = 1e-12     # mm, on top of RTOL, for emitted grid coordinates


def _resolve(name: str, base_dir: Path, data_dir: Path) -> Path:
    """Referencing directory first, then the bundled data directory."""
    for cand in (base_dir / name, data_dir / name):
        if cand.is_file():
            return cand
    raise FileNotFoundError(f"{name}: not in {base_dir} or {data_dir}")


def _section(path: Path, name: str) -> dict:
    with open(path) as fh:
        return yaml.safe_load(fh)[name]


# --------------------------------------------------------------------------
# models rebuilt from raw constants


class ForceLaw:
    """Tendon force F(d) of one actuator, N at d mm, with a slack clamp."""

    def __init__(self, path: Path, data_dir: Path) -> None:
        a = _section(path, "actuator")
        self.label = a.get("label", path.stem)
        self.k_t = float(a["k_t"])
        self.rated_force = float(a["rated_force"])
        self.rated_speed = float(a["rated_speed"])
        kind = a["kind"]
        self.k_et: Optional[float] = None
        self.force_atol = 0.0
        if kind == "tabulated":
            table = np.loadtxt(_resolve(a["table"], path.parent, data_dir),
                               delimiter=",", skiprows=1, ndmin=2)
            d_el, f = table[:, 0], table[:, 1]
            # d(F) = d_table(F) + F/k_t is piecewise linear with knots at f_i
            self.knots_d = d_el + f / self.k_t
            self.knots_f = f
            self.F_tm = float(f[-1])
            self.d_m = float(self.knots_d[-1])
            self.slope_below = float((f[-1] - f[-2])
                                     / (self.knots_d[-1] - self.knots_d[-2]))
            self.force_atol = 2.0 * self.k_t * BISECTION_STOP_MM
        else:
            self.F_tm = float(a["F_tm"])
            if kind == "torsion_internal":
                k_ts = a.get("k_ts")
                if k_ts is None:
                    k_ts = a["k_e"] / (2.0 * math.pi * a["pulley_radius_r"] ** 2)
                mu_p = float(a.get("mu_p", 0.0))
                self.k_et = k_ts * self.k_t / (self.k_t * (1.0 - mu_p) + k_ts)
            elif kind == "compression_external":
                k_cs = float(a["k_cs"])
                self.k_et = k_cs * self.k_t / (self.k_t + k_cs)
            else:
                raise ValueError(f"{path}: unknown actuator kind {kind!r}")
            self.d_m = self.F_tm / self.k_et
            self.slope_below = self.k_et

    def params(self) -> tuple:
        return (self.k_t, self.F_tm, self.d_m, self.k_et,
                self.rated_force, self.rated_speed)

    def force(self, d) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        if self.k_et is not None:
            inside = self.k_et * d
        else:
            inside = np.interp(d, self.knots_d, self.knots_f)
        past = self.F_tm + (d - self.d_m) * self.k_t
        return np.where(d <= 0.0, 0.0, np.where(d < self.d_m, inside, past))


class Joint:
    """Antagonistic pair and the single equation (*) of the joint layer:
    F_e = f(d_s + delta*R) - f(d_s - delta*R) + mu_s*f(d_s)."""

    def __init__(self, path: Path, data_dir: Path) -> None:
        j = _section(path, "joint")
        self.law = ForceLaw(_resolve(j["actuator_1"], path.parent, data_dir),
                            data_dir)
        other = ForceLaw(_resolve(j["actuator_2"], path.parent, data_dir),
                         data_dir)
        if other.params() != self.law.params():
            raise ValueError(f"{path}: the pair's actuators differ")
        self.R = float(j["R"])
        self.mu_s = float(j["mu_s"])
        self.inertia = float(j["inertia_I"])
        self.delta = float(j.get("delta", DEFAULT_DELTA))
        self.d_m = self.law.d_m

    def _combine(self, d_s, dx, sign_mu: float):
        """f(d_s+dx) - f(d_s-dx) + sign_mu*mu_s*f(d_s) and its tolerance."""
        f = self.law.force
        t1, t2, t3 = f(d_s + dx), f(d_s - dx), f(d_s)
        value = t1 - t2 + sign_mu * self.mu_s * t3
        tol = (RTOL * (np.abs(t1) + np.abs(t2) + self.mu_s * np.abs(t3))
               + (2.0 + self.mu_s) * self.law.force_atol)
        return value, tol

    def external_force(self, delta: float, d_s):
        return self._combine(d_s, delta * self.R, +1.0)

    def stiffness(self, delta: float, d_s):
        f_e, tol = self.external_force(delta, d_s)
        return f_e * self.R / delta, tol * self.R / delta

    def boundaries(self, delta: float) -> List[float]:
        dR = delta * self.R
        return [dR, self.d_m - dR, self.d_m, self.d_m + dR]

    def stages(self, delta: float, d_s) -> List[str]:
        names = ("S1_OpposingSlack", "S2_Controllable", "S3_DrivingAtLimit",
                 "S4_PretensionPastLimit", "S5_TendonOnly")
        bounds = self.boundaries(delta)
        out = []
        for v in np.asarray(d_s, dtype=float):
            # ties go to the lower stage; a merged boundary is emitted rounded
            i = next((k for k, b in enumerate(bounds)
                      if v <= b + RTOL * abs(b) + 1e-12), 4)
            out.append(names[i])
        return out

    def acceleration(self, d_s):
        d_s = np.asarray(d_s, dtype=float)
        f_e, tol = self._combine(d_s, d_s, +1.0)
        scale = (self.R / 1000.0) / self.inertia
        return f_e * scale, tol * scale

    def torque(self, d_s, d_t):
        raw, tol = self._combine(np.asarray(d_s, dtype=float),
                                 np.asarray(d_t, dtype=float), -1.0)
        return np.maximum(raw * self.R, 0.0), tol * self.R


class Arm:
    """Seven D-H rows, link lengths and ROM intervals from a chain file."""

    def __init__(self, path: Path) -> None:
        c = _section(path, "chain")
        self.links = {k: float(v) for k, v in c["link_lengths"].items()}
        rom = c["rom_deg"]
        self.rows = []
        for r in c["rows"]:
            lo, hi = rom[r["joint"]]
            self.rows.append(dict(
                a=self._length(r.get("a", 0.0)), d=self._length(r.get("d", 0.0)),
                alpha=math.radians(r["alpha_deg"]),
                offset=math.radians(r["theta_offset_deg"]),
                sign=int(r.get("joint_sign", 1)),
                lo=math.radians(lo), hi=math.radians(hi)))
        if len(self.rows) != 7:
            raise ValueError(f"{path}: expected 7 D-H rows")
        self.reach = self.links["b"] + self.links["c"] + self.links["d"]

    def _length(self, v) -> float:
        return self.links[v] if isinstance(v, str) else float(v)

    def points(self, n: int, seed: int) -> np.ndarray:
        """End-effector positions: default_rng(seed) uniform draws over the
        ROM intervals in row order, then the D-H product applied to the
        origin of the last frame, innermost row first."""
        rng = np.random.default_rng(seed)
        q = [rng.uniform(r["lo"], r["hi"], n) for r in self.rows]
        x = np.zeros(n)
        y = np.zeros(n)
        z = np.zeros(n)
        for r, qj in zip(reversed(self.rows), reversed(q)):
            theta = r["offset"] + r["sign"] * qj
            ct, st = np.cos(theta), np.sin(theta)
            ca, sa = math.cos(r["alpha"]), math.sin(r["alpha"])
            x, y, z = (ct * x - st * ca * y + st * sa * z + r["a"] * ct,
                       st * x + ct * ca * y - ct * sa * z + r["a"] * st,
                       sa * y + ca * z + r["d"])
        return np.column_stack([x, y, z])


class Lift:
    """Constants of a lift scenario, SI units."""

    def __init__(self, path: Path, data_dir: Path) -> None:
        s = _section(path, "lift")
        laws = [ForceLaw(_resolve(n, path.parent, data_dir), data_dir)
                for n in s["actuators"]]
        self.joint_R = float(s["joint_R"])
        self.tau_cap = sum(a.rated_force for a in laws) * self.joint_R
        self.omega_cap = min(a.rated_speed for a in laws) / 1000.0 / self.joint_R
        m_l, l_c = float(s["limb_mass"]), float(s["limb_com_distance"])
        m_p, l_p = float(s["payload_mass"]), float(s["payload_distance"])
        self.inertia = m_l * l_c ** 2 + m_p * l_p ** 2
        self.gravity_arm = (float(s.get("gravity", DEFAULT_GRAVITY))
                            * (m_l * l_c + m_p * l_p))
        self.theta_start = math.radians(s["theta_start_deg"])
        self.theta_target = math.radians(s["theta_target_deg"])
        self.dt = float(s["dt"])


# --------------------------------------------------------------------------
# reading and comparing outputs


class Problems(list):
    """Collected check failures, one line each."""

    def close(self, what: str, got, want, tol) -> None:
        got, want, tol = np.broadcast_arrays(np.asarray(got, dtype=float),
                                             np.asarray(want, dtype=float),
                                             np.asarray(tol, dtype=float))
        bad = ~(np.abs(got - want) <= tol + RTOL * np.abs(want))
        if bad.any():
            i = int(np.flatnonzero(bad.ravel())[0])
            self.append(f"{what}: entry {i}: got {got.ravel()[i]!r}, expected "
                        f"{want.ravel()[i]!r} (tol {tol.ravel()[i]:.3g}, "
                        f"{int(bad.sum())} bad)")

    def expect(self, what: str, ok) -> None:
        if not bool(ok):
            self.append(what)


def parse_table(data: bytes, fmt: str) -> Tuple[List[str], List[list]]:
    """Columns and rows of a data file; CSV cells stay strings."""
    if fmt == "json":
        obj = json.loads(data)
        return list(obj["columns"]), [list(r) for r in obj["rows"]]
    rows = list(csv.reader(io.StringIO(data.decode())))
    return rows[0], rows[1:]


def dump_table(columns: Sequence[str], rows: Sequence[list], fmt: str) -> bytes:
    if fmt == "json":
        return json.dumps({"columns": list(columns), "rows": rows}).encode()
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([columns, *rows])
    return buf.getvalue().encode()


class Table:
    def __init__(self, columns: List[str], rows: List[list]) -> None:
        self.columns = columns
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def col(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([float(r[i]) for r in self.rows])

    def labels(self, name: str) -> List[str]:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]


def grid(sweep: dict, exact: Sequence[float] = ()) -> np.ndarray:
    """Inclusive uniform grid with exactly computed breakpoints merged in,
    as the spec format documents."""
    start, stop, step = (float(sweep[k]) for k in ("start", "stop", "step"))
    n = math.floor((stop - start) / step + 1e-9)
    pts = [start + i * step for i in range(n + 1)]
    if stop - pts[-1] > 1e-9 * max(1.0, abs(stop)):
        pts.append(stop)
    lo, hi = pts[0], pts[-1]
    for b in exact:
        if lo <= b <= hi:
            pts = [p for p in pts if abs(p - b) > MERGE_TOL] + [b]
    return np.array(sorted(pts))


# --------------------------------------------------------------------------
# one case per experiment spec


class Case:
    """What one spec must produce, derived from its raw YAML."""

    def __init__(self, spec_path: Path, data_dir: Path,
                 fmt: Optional[str] = None, seed: Optional[int] = None) -> None:
        e = _section(spec_path, "experiment")
        self.kind = e["kind"]
        self.fmt = fmt or e.get("format", "csv")
        self.output = e["output"]
        self.sweeps = e.get("sweep") or {}
        self.n = e.get("n")
        self.seed = seed if seed is not None else e.get("seed")
        config = _resolve(e["config"], spec_path.parent, data_dir)
        if self.kind == "ForceDisplacement":
            self.model = ForceLaw(config, data_dir)
        elif self.kind == "Workspace":
            self.model = Arm(config)
        elif self.kind == "Lift":
            self.model = Lift(config, data_dir)
        else:
            self.model = Joint(config, data_dir)
            self.delta = float(e.get("delta", self.model.delta))
        self._check: Callable = getattr(self, "_check_" + self.kind)
        if self.kind == "Workspace":
            self.expected_points = self.model.points(self.n, self.seed)

    def files(self, out_dir: Path) -> Tuple[Path, Path]:
        data = out_dir / f"{self.output}.{self.fmt}"
        return data, out_dir / f"{self.output}_summary.json"

    def check(self, data: bytes, summary: bytes) -> List[str]:
        """Every way the output departs from the reference, one line each."""
        p = Problems()
        try:
            columns, rows = parse_table(data, self.fmt)
            s = json.loads(summary)
            t = Table(columns, rows)
            p.expect(f"summary experiment {s.get('experiment')!r} is not "
                     f"{self.kind!r}", s.get("experiment") == self.kind)
            p.expect(f"summary rows {s.get('rows')} but the file has {len(t)}",
                     s.get("rows") == len(t))
            self._check(t, s, p)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            p.append(f"{type(exc).__name__}: {exc}")
        return list(p)

    def _columns(self, t: Table, names: Sequence[str]) -> None:
        if t.columns != list(names):
            raise ValueError(f"columns {t.columns} are not {list(names)}")

    def _check_grid(self, t: Table, p: Problems, var: str, name: str,
                    exact: Sequence[float] = ()) -> np.ndarray:
        want = grid(self.sweeps[var], exact)
        got = t.col(name)
        if len(got) != len(want):
            raise ValueError(f"{name}: {len(got)} grid points, expected "
                             f"{len(want)}")
        p.close(name, got, want, COORD_ATOL)
        return got

    def _check_ForceDisplacement(self, t: Table, s: dict, p: Problems) -> None:
        law = self.model
        self._columns(t, ["displacement_mm", "force_N"])
        d = self._check_grid(t, p, "d", "displacement_mm", [law.d_m])
        want = law.force(d)
        p.close("force_N", t.col("force_N"), want, law.force_atol)
        p.expect("operation", s["operation"] == "force_from_displacement")
        p.expect("actuator_label", s["actuator_label"] == law.label)
        p.close("breakpoint_mm", s["breakpoint_mm"], law.d_m, 4 * EPS * law.d_m)
        p.close("breakpoint_N", s["breakpoint_N"], law.F_tm, 0.0)
        # one-sided difference quotients over h: rounding of F over h
        h = min(0.01, law.d_m / 100.0)
        fd_tol = (4 * EPS * law.F_tm + 2 * law.force_atol) / h
        p.close("slope_below_N_per_mm", s["slope_below_N_per_mm"],
                law.slope_below, fd_tol)
        p.close("slope_above_N_per_mm", s["slope_above_N_per_mm"],
                law.k_t, fd_tol)
        p.close("force_max_N", s["force_max_N"], t.col("force_N")[-1], 0.0)

    def _check_StiffnessVsPretension(self, t: Table, s: dict,
                                     p: Problems) -> None:
        j, delta = self.model, self.delta
        self._columns(t, ["d_s_mm", "stage_label", "F_e_N",
                             "K_s_Nmm_per_rad"])
        bounds = j.boundaries(delta)
        d_s = self._check_grid(t, p, "d_s", "d_s_mm", bounds)
        p.expect("stage_label differs from the boundaries of (*)",
                 t.labels("stage_label") == j.stages(delta, d_s))
        f_e, f_tol = j.external_force(delta, d_s)
        p.close("F_e_N", t.col("F_e_N"), f_e, f_tol)
        k_s, k_tol = j.stiffness(delta, d_s)
        p.close("K_s_Nmm_per_rad", t.col("K_s_Nmm_per_rad"), k_s, k_tol)
        p.expect("operation", s["operation"] == "joint_stiffness")
        p.close("delta_rad", s["delta_rad"], delta, 0.0)
        p.close("stage_boundaries_mm", s["stage_boundaries_mm"], bounds,
                4 * EPS * j.d_m)
        col = t.col("K_s_Nmm_per_rad")
        p.close("K_s_min_Nmm_per_rad", s["K_s_min_Nmm_per_rad"], col.min(), 0.0)
        p.close("K_s_max_Nmm_per_rad", s["K_s_max_Nmm_per_rad"], col.max(), 0.0)

    def _check_MaxAcceleration(self, t: Table, s: dict, p: Problems) -> None:
        j = self.model
        self._columns(t, ["d_s_mm", "theta_ddot_max_rad_per_s2"])
        d_s = self._check_grid(t, p, "d_s", "d_s_mm", [j.d_m / 2.0, j.d_m])
        acc, tol = j.acceleration(d_s)
        col = t.col("theta_ddot_max_rad_per_s2")
        p.close("theta_ddot_max_rad_per_s2", col, acc, tol)
        p.expect("operation", s["operation"] == "max_allowable_acceleration")
        p.close("slope_change_at_mm", s["slope_change_at_mm"], j.d_m / 2.0,
                4 * EPS * j.d_m)
        p.close("acc_max_rad_per_s2", s["acc_max_rad_per_s2"], col.max(), 0.0)

    def _check_TorqueSurface(self, t: Table, s: dict, p: Problems) -> None:
        j = self.model
        self._columns(t, ["d_s_mm", "d_t_mm", "tau_Nmm"])
        ds_axis, dt_axis = grid(self.sweeps["d_s"]), grid(self.sweeps["d_t"])
        want_ds = np.repeat(ds_axis, len(dt_axis))
        want_dt = np.tile(dt_axis, len(ds_axis))
        if len(t) != len(want_ds):
            raise ValueError(f"{len(t)} grid points, expected {len(want_ds)}")
        p.close("d_s_mm", t.col("d_s_mm"), want_ds, COORD_ATOL)
        p.close("d_t_mm", t.col("d_t_mm"), want_dt, COORD_ATOL)
        tau, tol = j.torque(want_ds, want_dt)
        col = t.col("tau_Nmm")
        p.close("tau_Nmm", col, tau, tol)
        p.expect("operation", s["operation"] == "joint_torque")
        p.close("tau_max_Nmm", s["tau_max_Nmm"], col.max(), 0.0)
        at = np.flatnonzero(
            (np.abs(want_ds - s["tau_max_at_d_s_mm"])
             <= RTOL * want_ds + COORD_ATOL)
            & (np.abs(want_dt - s["tau_max_at_d_t_mm"])
               <= RTOL * want_dt + COORD_ATOL))
        p.expect("tau_max_at_* names no grid point", len(at) == 1)
        p.close("tau_Nmm at tau_max_at_*", col[at[:1]], s["tau_max_Nmm"], 0.0)

    def _check_MaxTorqueVsPretension(self, t: Table, s: dict,
                                     p: Problems) -> None:
        j = self.model
        self._columns(t, ["d_s_mm", "tau_max_Nmm"])
        d_s = self._check_grid(t, p, "d_s", "d_s_mm", [j.d_m / 2.0, j.d_m])
        tau, tol = j.torque(d_s, j.d_m - d_s)
        col = t.col("tau_max_Nmm")
        p.close("tau_max_Nmm", col, tau, tol)
        p.expect("operation", s["operation"] == "max_controllable_torque")
        p.close("absolute_max_torque_Nmm", s["absolute_max_torque_Nmm"],
                j.R * j.law.F_tm, 0.0)
        p.close("tau_at_zero_pretension_Nmm", s["tau_at_zero_pretension_Nmm"],
                col[0], 0.0)

    def _check_StiffnessRange(self, t: Table, s: dict, p: Problems) -> None:
        j, delta = self.model, self.delta
        self._columns(t, ["K_smin_Nmm_per_rad", "K_smax_Nmm_per_rad",
                             "delta_K_Nmm_per_rad"])
        if len(t) != 1:
            raise ValueError(f"{len(t)} rows, expected 1")
        at = [delta * j.R, j.d_m / 2.0]
        k, tol = j.stiffness(delta, np.array(at))
        want = [k[0], k[1], k[1] - k[0]]
        tols = [tol[0], tol[1], tol[0] + tol[1]]
        for name, w, tl in zip(t.columns, want, tols):
            p.close(name, t.col(name), w, tl)
            p.close(name, s[name], w, tl)
            nm = name.replace("_Nmm_", "_Nm_")
            p.close(nm, s[nm], w / 1000.0, tl / 1000.0)
        p.expect("operation", s["operation"] == "controllable_stiffness_range")
        p.close("delta_rad", s["delta_rad"], delta, 0.0)
        p.close("evaluated_at_d_s_mm", s["evaluated_at_d_s_mm"], at,
                4 * EPS * j.d_m)

    def _check_Workspace(self, t: Table, s: dict, p: Problems) -> None:
        arm = self.model
        self._columns(t, ["x_m", "y_m", "z_m"])
        want = self.expected_points
        if len(t) != len(want):
            raise ValueError(f"{len(t)} points, expected {len(want)}")
        got = np.column_stack([t.col(c) for c in t.columns])
        # reassociated products of unit rotations and <= reach-long offsets
        p.close("points", got, want, 64 * EPS * arm.reach)
        reach = np.linalg.norm(got, axis=1)
        p.expect(f"a point lies {reach.max():.17g} m out, past b+c+d = "
                 f"{arm.reach!r}", reach.max() <= arm.reach * (1 + RTOL))
        tol = RTOL * arm.reach
        p.expect("operation", s["operation"] == "sample_workspace")
        p.expect(f"seed {s['seed']} is not {self.seed}", s["seed"] == self.seed)
        p.expect("n_samples", s["n_samples"] == self.n)
        p.close("max_reach_m", s["max_reach_m"], reach.max(), tol)
        p.close("bbox_min_m", s["bbox_min_m"], got.min(axis=0), tol)
        p.close("bbox_max_m", s["bbox_max_m"], got.max(axis=0), tol)
        p.close("centroid_m", s["centroid_m"], got.mean(axis=0), tol)

    def _check_Lift(self, t: Table, s: dict, p: Problems) -> None:
        L = self.model
        self._columns(t, ["t_s", "theta_rad", "omega_rad_per_s", "tau_Nm",
                             "tau_gravity_Nm", "power_W"])
        ts, th, om = t.col("t_s"), t.col("theta_rad"), t.col("omega_rad_per_s")
        tau, tg, pw = t.col("tau_Nm"), t.col("tau_gravity_Nm"), t.col("power_W")
        n = len(ts)
        if n < 2:
            raise ValueError(f"{n} rows; a lift takes at least 2")
        i = np.arange(n)
        p.close("t_s = i*dt", ts, i * L.dt, i * EPS * np.abs(ts))
        p.close("theta_rad[0]", th[0], L.theta_start, 0.0)
        p.close("omega_rad_per_s[0]", om[0], 0.0, 0.0)
        # explicit Euler, one row to the next
        p.close("theta_rad Euler step", th[1:], th[:-1] + om[:-1] * L.dt,
                RTOL * (np.abs(th[:-1]) + np.abs(th[1:])))
        dom = (tau[:-1] - tg[:-1]) / L.inertia * L.dt
        p.close("omega_rad_per_s Euler step", om[1:], om[:-1] + dom,
                RTOL * (np.abs(om[:-1]) + np.abs(om[1:]) + np.abs(dom)))
        p.close("tau_gravity_Nm", tg, L.gravity_arm * np.cos(th),
                RTOL * L.gravity_arm)
        p.close("power_W = tau*omega", pw, tau * om, 0.0)
        p.expect(f"|tau| exceeds the rated cap {L.tau_cap!r} Nm",
                 np.abs(tau).max() <= L.tau_cap * (1 + RTOL))
        p.expect(f"|omega| exceeds the rated cap {L.omega_cap!r} rad/s",
                 np.abs(om).max() <= L.omega_cap * (1 + 1e-9))
        direction = math.copysign(1.0, L.theta_target - L.theta_start)
        gap = direction * (th - L.theta_target)
        slack = RTOL * abs(L.theta_target) + 1e-12
        p.expect("the target is not reached on the last row",
                 gap[-1] >= -slack)
        p.expect("the target is reached before the last row",
                 (gap[:-1] < slack).all())
        p.expect("operation", s["operation"] == "simulate_lift")
        p.expect("reached_target", s["reached_target"] is True)
        p.close("time_to_target_s", s["time_to_target_s"], ts[-1],
                RTOL * ts[-1])
        p.close("peak_power_W", s["peak_power_W"], pw.max(), 0.0)
        p.close("peak_torque_Nm", s["peak_torque_Nm"], np.abs(tau).max(), 0.0)


def perturbed_copies(data: bytes, summary: bytes, fmt: str):
    """Damaged copies (what, data, summary) of a real output that a live
    check must reject: per numeric column, its largest-magnitude cell off by
    PERTURBATION relative; and the middle row dropped, with the summary's
    row count lowered to match."""
    columns, rows = parse_table(data, fmt)
    for c, name in enumerate(columns):
        if name.endswith("_label"):
            continue
        values = [abs(float(r[c])) for r in rows]
        k = int(np.argmax(values))
        if values[k] == 0.0:
            continue
        copy = [list(r) for r in rows]
        v = float(rows[k][c]) * (1.0 + PERTURBATION)
        copy[k][c] = v if fmt == "json" else repr(v)
        yield (f"{name}[{k}] x (1 + {PERTURBATION:g})",
               dump_table(columns, copy, fmt), summary)
    mid = len(rows) // 2
    s = json.loads(summary)
    s["rows"] -= 1
    yield (f"row {mid} dropped",
           dump_table(columns, rows[:mid] + rows[mid + 1:], fmt),
           json.dumps(s).encode())
