"""Differential fuzz: drawn valid specs of every experiment kind, run by the
program and checked by the benchmark's oracle.

bench/oracle.py recomputes each kind from the raw YAML with the closed
forms the package documents and imports nothing from tendonsim, so a
disagreement is a fault on one side. The specs vary the kind, the config,
the grid (fine around a breakpoint, coarse, off-grid stops, and long enough
to span several output blocks), the format, the Workspace seed and n, and
the Lift's dt and t_max. Besides the bundled models, they draw D-H chains
and tabulated actuator curves, written as config files beside the spec.
"""

import importlib.util
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tendonsim import (ActuatorModel, AntagonisticJointConfig,
                       ElasticElementSpec, joint)
from tendonsim.cli import (DATA_DIR, parse_config, parse_experiment,
                           run_experiment)

ROOT = Path(__file__).resolve().parents[1]
BENCH_DATA = ROOT / "bench" / "data"


def _load_oracle():
    spec = importlib.util.spec_from_file_location(
        "bench_oracle", ROOT / "bench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


class _Case(oracle.Case):
    """oracle.Case, with a 1-D sweep's values expected at the reference
    grid's points, as TorqueSurface's are. The stock check expects them at
    the file's coordinates, which CSV rounds to 12 digits (up to 5e-12
    relative); on a steep segment, such as k_t = 60 N/mm past eca's travel
    limit, that moves the expected value by more than RTOL. The file's
    coordinates are still checked against the grid, and no tolerance
    changes."""

    def _check_grid(self, t, p, var, name, exact=()):
        super()._check_grid(t, p, var, name, exact)
        return oracle.grid(self.sweeps[var], exact)


ACTUATORS = ["ica.yaml", "eca.yaml", "misa_like.yaml"]
JOINTS = ["ica_joint.yaml", "eca_joint.yaml",
          str(BENCH_DATA / "misa_like_joint.yaml")]


@st.composite
def grids(draw, lo, hi, breakpoints=()):
    """A sweep within [lo, hi]: fine steps around a breakpoint (or lo),
    a step past the span, an off-grid stop, or 3000-9000 points."""
    style = draw(st.sampled_from(["fine", "coarse", "off_grid", "long"]))
    if style == "fine":
        b = draw(st.sampled_from([x for x in breakpoints if lo <= x <= hi]
                                 or [lo]))
        step = draw(st.sampled_from([1e-10, 3e-10, 1e-9, 2.5e-8, 1e-6]))
        start = max(lo, b - draw(st.integers(0, 40)) * step)
        stop = min(hi, b + draw(st.integers(1, 40)) * step)
    elif style == "coarse":
        start = draw(st.floats(lo, (lo + hi) / 2))
        stop = hi
        step = (stop - start) * draw(st.floats(1.0, 10.0)) + 1e-3
    elif style == "off_grid":
        start = draw(st.floats(lo, lo + (hi - lo) / 4))
        step = (hi - start) / draw(st.floats(5.5, 300.5))
        stop = hi
    else:
        start, stop = lo, hi
        step = (hi - lo) / draw(st.integers(3000, 9000))
    return {"start": start, "stop": stop, "step": step}


def _yaml_grid(g):
    return "{" + ", ".join(f"{k}: {v!r}" for k, v in g.items()) + "}"


def _fixed(x):
    """x in fixed notation: the oracle reads YAML 1.1, where 1e-05 is a
    string, and the program reads the same text."""
    return f"{x:.9f}"


@st.composite
def chains(draw):
    """A chain file of seven drawn D-H rows: a and d each zero or drawn,
    alpha 0 or +-90 degrees, drawn offsets and signs, and ROM widths from
    0 to 360 degrees. The oracle bounds the reach by b + c + d, so the link
    lengths cover the sum of |a| + |d|."""
    length = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    rows, rom, total = [], [], 0.0
    for i in range(7):
        a, d = _fixed(draw(length)), _fixed(draw(length))
        total += abs(float(a)) + abs(float(d))
        rows.append(f"    - {{joint: q{i}, a: {a}, d: {d}, alpha_deg: "
                    f"{draw(st.sampled_from([0, 90, -90]))}, "
                    f"theta_offset_deg: {_fixed(draw(st.floats(-180, 180)))}"
                    f", joint_sign: {draw(st.sampled_from([1, -1]))}}}")
        lo = draw(st.floats(-180, 180))
        hi = lo + draw(st.floats(0, 360))
        rom.append(f"    q{i}: [{_fixed(lo)}, {_fixed(hi)}]")
    links = [f"    {name}: {_fixed(total / 3 * draw(st.floats(1, 2)) + 1e-3)}"
             for name in "bcd"]
    return "\n".join(["chain:", "  link_lengths:", *links, "  rom_deg:",
                      *rom, "  rows:", *rows]) + "\n"


@st.composite
def curves(draw):
    """(files, actuator) of a tabulated actuator "act.yaml": a monotone
    knot table from (0, 0) of 2 to 40 knots, some segments nearly flat,
    and a drawn k_t."""
    segment = st.tuples(st.floats(0.1, 5.0),
                        st.one_of(st.floats(1e-6, 1e-3), st.floats(0.1, 50.0)))
    table = [(0.0, 0.0)]
    for dd, df in draw(st.lists(segment, min_size=1, max_size=39)):
        table.append((table[-1][0] + dd, table[-1][1] + df))
    k_t = draw(st.floats(1.0, 1e4))
    files = {
        "curve.csv": "displacement_mm,force_N\n" + "".join(
            f"{d!r},{f!r}\n" for d, f in table),
        "act.yaml": ("actuator:\n  label: drawn\n  kind: tabulated\n"
                     "  table: curve.csv\n  rated_force: 250.0\n"
                     f"  rated_speed: 110.0\n  k_t: {k_t!r}\n")}
    return files, ActuatorModel(element=ElasticElementSpec.tabulated(table),
                                k_t=k_t, rated_force=250.0, rated_speed=110.0)


@st.composite
def specs(draw):
    """(spec text, extra files by name, fmt, seed) of a valid spec."""
    kind = draw(st.sampled_from([
        "ForceDisplacement", "StiffnessVsPretension", "MaxAcceleration",
        "MaxTorqueVsPretension", "TorqueSurface", "StiffnessRange",
        "Workspace", "Lift"]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    fields, files, seed = {}, {}, None
    if kind == "ForceDisplacement":
        config = draw(st.sampled_from(ACTUATORS + ["drawn"]))
        if config == "drawn":
            files, actuator = draw(curves())
            config = "act.yaml"
        else:
            actuator = parse_config(DATA_DIR / config)
        d_m = actuator.d_max_total
        fields["sweep"] = {"d": draw(grids(0.0, 1.5 * d_m, [d_m]))}
    elif kind == "Workspace":
        config = draw(st.sampled_from(["arm.yaml", "chain.yaml"]))
        if config == "chain.yaml":
            files[config] = draw(chains())
        seed = draw(st.integers(0, 2 ** 64 - 1))
        fields["n"] = draw(st.integers(1, 6000))
        fields["seed"] = seed
    elif kind == "Lift":
        config = "lift.yaml"
        dt = draw(st.floats(5e-5, 1e-3))
        t_max = draw(st.floats(1.0, 5.0))
        text = (DATA_DIR / "lift_dumbbell.yaml").read_text()
        files[config] = (text.replace("dt: 0.0001", f"dt: {dt!r}")
                         .replace("t_max: 5.0", f"t_max: {t_max!r}"))
    else:
        config = draw(st.sampled_from(JOINTS + ["drawn"]))
        if config == "drawn":
            files, actuator = draw(curves())
            config = "joint.yaml"
            R = draw(st.floats(2.0, 20.0))
            mu_s = round(draw(st.floats(0.0, 0.5)), 3)
            files[config] = (
                "joint:\n  actuator_1: act.yaml\n  actuator_2: act.yaml\n"
                f"  R: {R!r}\n  mu_s: {mu_s!r}\n  inertia_I: 0.001\n")
            pair = AntagonisticJointConfig(actuator, actuator, R, mu_s, 0.001)
        else:
            pair = parse_config(DATA_DIR / config).joint
        d_m, R = pair.d_m, pair.R
        if kind in ("StiffnessVsPretension", "StiffnessRange"):
            # the controllable stage must not be empty: delta*R < d_m/2
            top = min(0.3, 0.45 * d_m / R)
            delta = draw(st.floats(top / 30, top))
            fields["delta"] = delta
        if kind == "StiffnessVsPretension":
            bounds = joint.stage_boundaries(pair, delta)
            fields["sweep"] = {"d_s": draw(grids(0.0, 1.2 * d_m, bounds))}
        elif kind in ("MaxAcceleration", "MaxTorqueVsPretension"):
            fields["sweep"] = {"d_s": draw(grids(0.0, d_m,
                                                 [d_m / 2.0, d_m]))}
        elif kind == "TorqueSurface":
            # the row count is the product of two axes
            axis = st.builds(lambda n: {"start": 0.0, "stop": d_m,
                                        "step": d_m / n},
                             st.integers(1, 80))
            fields["sweep"] = {"d_s": draw(axis), "d_t": draw(axis)}
    lines = ["experiment:", f"  kind: {kind}", f"  config: {config}",
             "  output: fuzz", f"  format: {fmt}"]
    for key, value in fields.items():
        if key == "sweep":
            lines.append("  sweep:")
            lines += [f"    {var}: {_yaml_grid(g)}"
                      for var, g in value.items()]
        else:
            lines.append(f"  {key}: {value!r}")
    return "\n".join(lines) + "\n", files, fmt, seed


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs())
def test_drawn_specs_agree_with_the_oracle(case):
    text, files, fmt, seed = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, content in files.items():
            (tmp / name).write_text(content)
        spec = tmp / "spec.yaml"
        spec.write_text(text)
        result = run_experiment(parse_experiment(spec), out_dir=tmp,
                                fmt=fmt, seed=seed)
        data = result.output_path.read_bytes()
        summary = result.summary_path.read_bytes()
        problems = _Case(spec, DATA_DIR, fmt, seed).check(data, summary)
    assert problems == [], text
