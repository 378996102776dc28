"""A fixed reference computation that measures the machine's speed of the
moment.

On a shared host the same pass runs up to twice as slow for stretches that
can outlast a whole run, so a pass time alone says as much about the host as
about the program. The benchmark times this yardstick next to every pass
and reports pass time over yardstick time. The yardstick never calls
tendonsim, so a change to the program moves only the numerator. Its work is
the same mix a pass does (YAML parsing, array maths on 4x4 transforms,
float formatting, CSV write and re-read, JSON output, and a scalar Python
loop), so a slow spell of the host stretches both alike.
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import yaml

_DOC = """\
actuator:
  name: reference
  kind: tabulated
  rated_force_N: 120.0
  rated_speed_mm_s: 35.0
  tendon: {k_t_N_per_mm: 50.0, length_mm: 210.5}
  table:
""" + "".join(f"    - [{0.7 * i:.4f}, {3.1 * i + 0.02 * i * i:.4f}]\n"
              for i in range(40))

_N_POINTS = 8000
_N_SCALAR = 200


def _yaml_part() -> float:
    total = 0.0
    for _ in range(6):
        doc = yaml.safe_load(_DOC)["actuator"]
        total += sum(f for _, f in doc["table"])
    return total


def _array_part(rng) -> np.ndarray:
    q = rng.uniform(-math.pi, math.pi, size=(_N_POINTS, 7))
    T = np.broadcast_to(np.eye(4), (_N_POINTS, 4, 4)).copy()
    for j in range(7):
        c, s = np.cos(q[:, j]), np.sin(q[:, j])
        A = np.zeros((_N_POINTS, 4, 4))
        A[:, 0, 0], A[:, 0, 1], A[:, 0, 3] = c, -s, 0.1 * c
        A[:, 1, 0], A[:, 1, 1], A[:, 1, 3] = s, c, 0.1 * s
        A[:, 2, 2], A[:, 2, 3], A[:, 3, 3] = 1.0, 0.05 * j, 1.0
        T = T @ A
    return T[:, :3, 3]


def _csv_part(points: np.ndarray, path: Path) -> float:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x_m", "y_m", "z_m"])
        for row in points.tolist():
            writer.writerow([format(v, ".12g") for v in row])
    total = 0.0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            total += sum(float(c) for c in row)
    return total


def _json_part(points: np.ndarray, path: Path) -> int:
    rows = [[float(v) for v in r] for r in points[:2000].tolist()]
    with open(path, "w") as fh:
        json.dump({"columns": ["x_m", "y_m", "z_m"], "rows": rows}, fh,
                  indent=2, sort_keys=True)
    return len(rows)


def _scalar_part() -> float:
    knots = [(0.7 * i, 3.1 * i + 0.02 * i * i) for i in range(40)]

    def forward(f: float) -> float:
        for (d0, f0), (d1, f1) in zip(knots, knots[1:]):
            if f <= f1:
                return d0 + (d1 - d0) * (f - f0) / (f1 - f0) + f / 50.0
        return knots[-1][0] + f / 50.0

    total = 0.0
    for i in range(_N_SCALAR):
        d = 0.12 * i
        lo, hi = 0.0, 200.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if forward(mid) < d:
                lo = mid
            else:
                hi = mid
        total += lo
    return total


def run(scratch: Path) -> float:
    """Seconds one round of the reference work takes now. scratch is a
    directory the yardstick may write two small files into."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    _yaml_part()
    points = _array_part(rng)
    _csv_part(points, scratch / "yardstick.csv")
    _json_part(points, scratch / "yardstick.json")
    _scalar_part()
    return time.perf_counter() - t0
