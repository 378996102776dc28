"""tendonsim benchmark: two workloads, end-to-end and per-layer metrics.

Run from the repository root; the package is imported from ./src, so it
need not be installed:

    python3 bench/run.py --workload bundled --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload tabulated_surface --seed 1 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 50

One run warms up with one pass, self-tests its output checks on that pass,
times set-up, then repeats passes for --seconds, each between two timings of
a fixed reference computation (bench/yardstick.py); peak RSS comes from a
fresh process. A pass runs parse_experiment -> run_experiment on each of
the workload's specs, as `tendonsim run` does; each spec in a pass is one
operation. Every output is checked against bench/oracle.py. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = SRC / "tendonsim" / "data"
OUT_ROOT = ROOT / ".bench_out"

# spec file and --format override of each operation in a pass
WORKLOADS = {
    "bundled": (
        (DATA / "exp_workspace.yaml", None),
        (DATA / "exp_lift.yaml", "json"),
        (DATA / "exp_force_displacement.yaml", None),
        (DATA / "exp_stiffness_vs_pretension.yaml", None),
        (DATA / "exp_max_acceleration.yaml", None),
        (DATA / "exp_torque_surface.yaml", None),
        (DATA / "exp_max_torque.yaml", None),
        (DATA / "exp_stiffness_range.yaml", None),
    ),
    "tabulated_surface": ((BENCH_DIR / "data" / "exp_tabulated_surface.yaml",
                           None),),
}

# On a shared two-core machine the same pass runs up to 2x slower in
# stretches that can outlast a whole run, so neither the median nor the
# fastest pass of one run repeats from run to run. The pass time is
# therefore reported over the time of the yardstick taken on either side of
# it, which slows alike. Set-up is sampled in many short pieces over the
# window, and its fastest sample is reported.
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {"run_per_yardstick": "ratio", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "elastic.force_calls": "count", "elastic.force_s": "s",
    "elastic.force_us_per_call": "us", "elastic.forward_calls": "count",
    "elastic.forward_per_force": "ratio",
    "joint.calls": "count", "joint.s": "s", "joint.self_s": "s",
    "kinematics.sample_workspace_s": "s", "kinematics.samples_per_s": "1/s",
    "kinematics.alloc_peak_mb": "MB",
    "dynamics.simulate_lift_s": "s", "dynamics.steps": "count",
    "dynamics.steps_per_s": "1/s",
    "cli.parse_s": "s", "cli.validate_s": "s", "cli.emit_s": "s",
    "cli.rows": "count", "cli.output_bytes": "B", "cli.import_s": "s",
    "trace.overhead_s": "s", "run.wall_s": "s", "yardstick.s": "s",
}


def import_program():
    """The tendonsim modules of this checkout, never an installed copy."""
    pkg = SRC / "tendonsim"
    sys.path.insert(0, str(SRC))
    import tendonsim.cli as cli
    import tendonsim.elastic as elastic
    import tendonsim.joint as joint
    if Path(cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported tendonsim from {cli.__file__}, "
                         f"not from {pkg}")
    return cli, joint, elastic


def run_pass(cli, specs, out_dir: Path, seed: int):
    """One round over the specs into a fresh out_dir. Returns per operation
    (parse seconds, run seconds, error or None)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    gc.collect()
    ops = []
    for path, fmt in specs:
        t0 = time.perf_counter()
        t1 = None
        err = None
        try:
            spec = cli.parse_experiment(path)
            t1 = time.perf_counter()
            cli.run_experiment(spec, out_dir=out_dir, fmt=fmt, seed=seed)
        except (cli.ConfigError, cli.ExperimentError, cli.SchemaError) as exc:
            err = f"{path.name}: {type(exc).__name__}: {exc}"
        except Exception:  # a crash is one failed operation; the run goes on
            err = f"{path.name}: {traceback.format_exc()}"
        t2 = time.perf_counter()
        t1 = t1 or t2
        ops.append((t1 - t0, t2 - t1, err))
    return ops


class Tally:
    """Attempted and failed operations, and the checks of their outputs.

    Outputs are deterministic, so each distinct output (by sha256) is
    checked against the oracle once and its verdict reused.
    """

    def __init__(self, cases) -> None:
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.verdicts = {}
        self.logged = set()

    def _log(self, msg: str) -> None:
        if msg not in self.logged:
            self.logged.add(msg)
            print(msg, file=sys.stderr)

    def record(self, errors, out_dir: Path):
        """Count one pass; returns (rows, bytes) of its outputs."""
        rows = size = 0
        for case, err in zip(self.cases, errors):
            self.attempted += 1
            if err is None:
                try:
                    data_path, summary_path = case.files(out_dir)
                    data = data_path.read_bytes()
                    summary = summary_path.read_bytes()
                except OSError as exc:
                    err = f"{case.output}: output missing: {exc}"
                else:
                    key = hashlib.sha256(data + b"\0" + summary).digest()
                    if key not in self.verdicts:
                        self.verdicts[key] = case.check(data, summary)
                    problems = self.verdicts[key]
                    if problems:
                        self.wrong += 1
                        err = (f"{case.output}: wrong output: "
                               + "; ".join(problems))
                    else:
                        rows += json.loads(summary)["rows"]
                        size += len(data) + len(summary)
            if err is not None:
                self.failed += 1
                self._log(err)
        return rows, size


def self_test(cases, out_dir: Path) -> bool:
    """Each check must reject damaged copies of a real output."""
    import oracle
    ok = True
    for case in cases:
        data_path, summary_path = case.files(out_dir)
        if not (data_path.is_file() and summary_path.is_file()):
            continue  # that operation failed and is counted as such
        for what, data, summary in oracle.perturbed_copies(
                data_path.read_bytes(), summary_path.read_bytes(), case.fmt):
            if not case.check(data, summary):
                print(f"self-test: the {case.kind} check accepts {what}",
                      file=sys.stderr)
                ok = False
    return ok


def time_setup(cli, specs):
    """Seconds to parse every spec of the workload once."""
    t0 = time.perf_counter()
    for path, _ in specs:
        try:
            cli.parse_experiment(path)
        except Exception:  # counted as a failed operation by the passes
            pass
    return time.perf_counter() - t0


def fresh_process(workload: str, seed: int, out_dir: Path):
    """One pass in a new interpreter: (peak RSS bytes, import seconds,
    per-operation errors)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--child-out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        n = len(WORKLOADS[workload])
        return None, None, [f"fresh process: {type(exc).__name__}"] * n
    return report["maxrss_kb"] * 1024, report["import_s"], report["errors"]


def child_main(workload: str, seed: int, out_dir: Path) -> int:
    t0 = time.perf_counter()
    cli, _, _ = import_program()
    import_s = time.perf_counter() - t0
    ops = run_pass(cli, WORKLOADS[workload], out_dir, seed)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss_kb, "import_s": import_s,
                      "errors": [err for _, _, err in ops]}))
    return 0


def pass_layers(tracer, ops, rows: int, size: int) -> dict:
    """Raw per-layer figures of one traced pass."""
    t = tracer
    return {
        "elastic.force_calls": t.force_calls,
        "elastic.force_s": t.force_s,
        "elastic.forward_calls": t.forward_calls,
        "joint.calls": t.joint_calls,
        "joint.s": t.joint_s,
        "joint.self_s": t.joint_s - t.force_in_joint_s,
        "kinematics.samples": t.samples,
        "kinematics.sample_workspace_s": t.workspace_s,
        "kinematics.alloc_peak_mb": t.alloc_peak_bytes / 1e6,
        "dynamics.simulate_lift_s": t.lift_s,
        "dynamics.steps": t.steps,
        "cli.parse_s": sum(p for p, _, _ in ops),
        "cli.validate_s": t.validate_s,
        "cli.emit_s": (sum(r for _, r, _ in ops) - t.model_s()
                       - t.validate_s),
        "cli.rows": rows,
        "cli.output_bytes": size,
    }


def layer_values(passes) -> dict:
    """Fastest span of each kind over the traced passes; counts repeat
    from pass to pass."""
    def pick(k: str):
        timed = k == "joint.s" or k.endswith("_s")
        return min if timed else statistics.median_low

    v = {k: pick(k)(p[k] for p in passes) for k in passes[0]}

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    v["elastic.force_us_per_call"] = 1e6 * per(v["elastic.force_s"],
                                               v["elastic.force_calls"])
    v["elastic.forward_per_force"] = per(v["elastic.forward_calls"],
                                         v["elastic.force_calls"])
    v["kinematics.samples_per_s"] = per(v.pop("kinematics.samples"),
                                        v["kinematics.sample_workspace_s"])
    v["dynamics.steps_per_s"] = per(v["dynamics.steps"],
                                    v["dynamics.simulate_lift_s"])
    return v


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    specs = WORKLOADS[workload]
    out_dir = OUT_ROOT / f"{workload}-{os.getpid()}"
    child_dir = out_dir.with_name(out_dir.name + "-fresh")
    ys_dir = out_dir.with_name(out_dir.name + "-yardstick")
    try:
        # A child's ru_maxrss starts from this process's high-water mark at
        # spawn, so the fresh process runs before anything large is loaded.
        peak_rss, import_s, child_errors = fresh_process(workload, seed,
                                                         child_dir)

        cli, joint, elastic = import_program()
        import oracle
        import yardstick
        from tracer import Tracer

        cases = [oracle.Case(path, DATA, fmt, seed) for path, fmt in specs]
        tally = Tally(cases)
        tally.record(child_errors, child_dir)

        ops = run_pass(cli, specs, out_dir, seed)
        tally.record([e for _, _, e in ops], out_dir)
        checks_live = self_test(cases, out_dir)

        tracer = Tracer()
        ys_dir.mkdir(parents=True, exist_ok=True)
        plain, traced, layers, setup = [], [], [], []
        yardstick.run(ys_dir)  # warm-up: its first round runs cold
        ys = [yardstick.run(ys_dir)]
        deadline = time.perf_counter() + seconds
        while len(plain) < MIN_PASSES or time.perf_counter() < deadline:
            # set-up samples are spread over the window like the passes, so
            # both see the same swings in machine speed
            setup.append(time_setup(cli, specs))
            ops = run_pass(cli, specs, out_dir, seed)
            tally.record([e for _, _, e in ops], out_dir)
            plain.append(sum(p + r for p, r, _ in ops))
            ys.append(yardstick.run(ys_dir))
            if trace:
                tracer.reset()
                with tracer.installed(cli, joint, elastic):
                    ops = run_pass(cli, specs, out_dir, seed)
                rows, size = tally.record([e for _, _, e in ops], out_dir)
                traced.append(sum(p + r for p, r, _ in ops))
                layers.append(pass_layers(tracer, ops, rows, size))
    finally:
        for d in (out_dir, child_dir, ys_dir):
            shutil.rmtree(d, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    if trace:
        values = layer_values(layers)
        values["cli.import_s"] = import_s or 0.0
        # each traced pass follows an untraced one, so the pair shares the
        # machine's speed of the moment
        values["trace.overhead_s"] = statistics.median(
            t - p for t, p in zip(traced, plain))
        values["run.wall_s"] = min(plain)
        values["yardstick.s"] = statistics.median(ys)
        units = PER_LAYER
    else:
        # each pass over the mean of the yardsticks just before and after it
        values = {"run_per_yardstick": statistics.median(
                      2 * p / (y0 + y1)
                      for p, y0, y1 in zip(plain, ys, ys[1:])),
                  "setup_s": min(setup),
                  "peak_rss_mb": (peak_rss or 0) / 1e6}
        units = END_TO_END
    return {"correct": checks_live and tally.wrong == 0 and bool(peak_rss),
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()}}


def run_all(seed: int, seconds: int) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"error: {workload} --trace {trace} exited "
                                 f"with code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"{workload} trace={trace}: attempted {result['attempted']}"
                  f", failed {result['failed']}, correct {result['correct']}")
            for name, m in result["metrics"].items():
                print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
                metrics[f"{workload}/{name}"] = m
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-out", type=Path, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "tendonsim" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'tendonsim'}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    # config names resolve through the documented order without it
    os.environ.pop("TENDONSIM_CONFIG_DIR", None)

    if args.child_out is not None:
        return child_main(args.workload, args.seed, args.child_out)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
