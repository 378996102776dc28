"""Arm kinematics: D-H rows, reference poses, ROM handling, workspace.

One closed-form D-H step computes every transform: forward_kinematics and
dh_transform are its one-pose calls, and sample_workspace runs it over
slices. The row transform is checked against an elementary-transform
oracle (Rz * Tz * Tx * Rx composed here from scratch). Pinned sha256s of
forward_kinematics transforms hold the step to its bits, in process and
under an OpenBLAS kernel without FMA, and a workspace point is bitwise the
position of its pose.
"""

import collections
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tendonsim import (DHRow, KinematicChain, RomError, default_arm,
                       dh_transform, forward_kinematics,
                       full_extension_joint_values, kinematics,
                       sample_workspace)
from tendonsim.kinematics import (_POSITION, DEFAULT_ROM_DEG, FK_CHUNK,
                                  JOINT_ORDER, _fk_frame, _liveness)

B, C, D = 0.30, 0.25, 0.08


# elementary-transform oracle for the standard row convention
def _rz(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def _rx(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])


def _tz(d):
    m = np.eye(4)
    m[2, 3] = d
    return m


def _tx(a):
    m = np.eye(4)
    m[0, 3] = a
    return m


def _oracle_row_transform(row, q):
    theta = row.theta_offset + row.joint_sign * q
    return _rz(theta) @ _tz(row.d) @ _tx(row.a) @ _rx(row.alpha)


def test_dh_transform_matches_elementary_composition():
    rng = np.random.default_rng(5)
    alphas = (0.0, math.pi / 2.0, -math.pi / 2.0)
    for _ in range(200):
        row = DHRow(a=float(rng.uniform(-0.5, 0.5)),
                    d=float(rng.uniform(-0.5, 0.5)),
                    alpha=alphas[rng.integers(0, 3)],
                    theta_offset=float(rng.uniform(-math.pi, math.pi)),
                    joint_sign=int(rng.choice([-1, 1])),
                    joint_name="q")
        q = float(rng.uniform(-math.pi, math.pi))
        np.testing.assert_allclose(dh_transform(row, q),
                                   _oracle_row_transform(row, q),
                                   atol=1e-14)


def test_row_validation():
    fields = dict(a=0.0, d=0.0, alpha=0.0, theta_offset=0.0)
    # NaN alpha once passed, as min(nan, nan) > 1e-12 is False
    for field, value in (("alpha", 0.5), ("alpha", math.nan),
                         ("alpha", math.inf), ("theta_offset", math.inf),
                         ("theta_offset", -math.inf),
                         ("theta_offset", math.nan), ("a", math.nan),
                         ("a", math.inf), ("d", math.nan), ("d", -math.inf)):
        with pytest.raises(ValueError, match=field):
            DHRow(**{**fields, field: value}, joint_sign=1, joint_name="q")
    with pytest.raises(ValueError, match="joint_sign"):
        DHRow(a=0.0, d=0.0, alpha=0.0, theta_offset=0.0, joint_sign=2,
              joint_name="q")
    with pytest.raises(ValueError, match="joint_name"):
        DHRow(a=0.0, d=0.0, alpha=0.0, theta_offset=0.0, joint_sign=1,
              joint_name="")


def test_chain_validation():
    arm = default_arm()
    with pytest.raises(ValueError, match="exactly 7"):
        KinematicChain(rows=arm.rows[:5], rom=arm.rom)
    rom = {k: v for k, v in arm.rom.items() if k != "theta_12"}
    with pytest.raises(ValueError, match="theta_12"):
        KinematicChain(rows=arm.rows, rom=rom)
    with pytest.raises(ValueError, match="link length"):
        default_arm(b=0.0)
    with pytest.raises(ValueError, match="link length b must be positive "
                                         "and finite, got inf"):
        default_arm(b=math.inf)
    # past ~7.7e153 m the squared coordinates of a position overflow
    for b in (1e308, 1e154):
        with pytest.raises(ValueError, match="too large for the norm"):
            default_arm(b=b)
    default_arm(b=7e153)
    rom = {**arm.rom, "theta_3l": (-0.5, 0.5)}    # a typo of theta_31
    with pytest.raises(ValueError,
                       match=r"ROM intervals for unknown joints \['theta_3l'\]"):
        KinematicChain(rows=arm.rows, rom=rom)
    for bounds in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
        rom = {**arm.rom, "theta_21": bounds}
        with pytest.raises(ValueError, match="ROM interval for 'theta_21' "
                                             "must be finite"):
            KinematicChain(rows=arm.rows, rom=rom)


def test_reach_limit_is_link_sum():
    arm = default_arm()
    assert arm.reach_limit == pytest.approx(B + C + D, abs=1e-15)


# --------------------------------------------------------------------------
# reference poses


def test_all_zero_pose(arm):
    p = forward_kinematics(arm, [0.0] * 7).position
    np.testing.assert_allclose(p, [-(B + C), -D, 0.0], atol=1e-12)


def test_elbow_right_angle_pose(arm):
    q = {name: 0.0 for name in JOINT_ORDER}
    q["theta_21"] = math.pi / 2.0
    p = forward_kinematics(arm, q).position
    np.testing.assert_allclose(p, [-(B - D), -C, 0.0], atol=1e-12)


def test_full_extension_pose(arm):
    fk = forward_kinematics(arm, full_extension_joint_values())
    np.testing.assert_allclose(fk.position, [-(B + C + D), 0.0, 0.0],
                               atol=1e-12)
    assert np.linalg.norm(fk.position) == pytest.approx(B + C + D, abs=1e-12)


def test_extension_reach_ignores_non_pinning_joints(arm):
    # only the elbow and the first wrist axis pin the straight pose; the
    # other five rotate about the common axis and leave the reach unchanged
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = full_extension_joint_values()
        for name in ("theta_31", "theta_32", "theta_33", "theta_22",
                     "theta_12"):
            lo, hi = arm.rom[name]
            q[name] = float(rng.uniform(lo, hi))
        reach = np.linalg.norm(forward_kinematics(arm, q).position)
        assert reach == pytest.approx(B + C + D, abs=1e-12)


def test_rotation_is_orthonormal(arm):
    rng = np.random.default_rng(9)
    for _ in range(100):
        q = {name: float(rng.uniform(*arm.rom[name])) for name in JOINT_ORDER}
        rot = forward_kinematics(arm, q).rotation
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-13)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-13)


# --------------------------------------------------------------------------
# inputs and ROM


def test_mapping_and_sequence_inputs_agree(arm):
    q = {"theta_31": 0.1, "theta_32": 0.2, "theta_33": -0.3,
         "theta_21": 0.4, "theta_22": 0.5, "theta_11": -0.6,
         "theta_12": 0.7}
    seq = [q[name] for name in JOINT_ORDER]
    np.testing.assert_array_equal(forward_kinematics(arm, q).transform,
                                  forward_kinematics(arm, seq).transform)


def test_input_validation(arm):
    with pytest.raises(ValueError, match="missing joint"):
        forward_kinematics(arm, {"theta_31": 0.0})
    with pytest.raises(ValueError, match="expected 7"):
        forward_kinematics(arm, [0.0] * 6)


def test_rom_violation_names_the_joint(arm):
    q = full_extension_joint_values()
    q["theta_21"] = -0.1   # below its 0 deg lower bound
    with pytest.raises(RomError, match="theta_21"):
        forward_kinematics(arm, q)


def test_non_finite_joint_values_are_rejected(arm):
    # a NaN fails every ROM comparison, and it must not reach the D-H path
    q = full_extension_joint_values()
    for bad in (math.nan, math.inf, -math.inf):
        q["theta_22"] = bad
        with pytest.raises(RomError, match="theta_22"):
            forward_kinematics(arm, q)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            dh_transform(arm.rows[0], bad)


def test_default_rom_covers_the_reference_poses():
    assert set(DEFAULT_ROM_DEG) == set(JOINT_ORDER)
    for name, (lo, hi) in DEFAULT_ROM_DEG.items():
        assert lo < hi
    # the full-extension pose must be reachable
    for name, v in full_extension_joint_values().items():
        lo, hi = DEFAULT_ROM_DEG[name]
        assert math.radians(lo) <= v <= math.radians(hi)


# --------------------------------------------------------------------------
# workspace sampling


def _offset_chain():
    # nonzero a and d in every row, alpha in {0, +-pi/2}
    h = math.pi / 2.0
    specs = ((0.05, 0.10, h, 0.0, +1), (0.12, -0.03, 0.0, h, -1),
             (-0.07, 0.20, -h, 0.3, +1), (0.02, 0.15, 0.0, -h, +1),
             (0.09, -0.11, h, math.pi, -1), (-0.04, 0.06, -h, 0.0, +1),
             (0.03, 0.08, 0.0, 1.0, -1))
    rows = tuple(DHRow(*spec, name) for spec, name in zip(specs, JOINT_ORDER))
    return KinematicChain(rows=rows, rom=default_arm().rom)


CHAINS = {"bundled_arm": default_arm, "offset_chain": _offset_chain}


@functools.lru_cache(maxsize=None)
def _fk_digest(name):
    chain = CHAINS[name]()
    lo, hi = np.array([chain.rom[row.joint_name] for row in chain.rows]).T
    poses = np.random.default_rng(3).uniform(lo, hi, (20000, 7))
    h = hashlib.sha256()
    for q in poses:
        h.update(forward_kinematics(chain, q).transform.tobytes())
    return h.hexdigest()


def _fk_digests():
    """The digests that test_fk_bits_do_not_depend_on_the_blas_kernel
    compares across processes."""
    return [_digest(sample_workspace(default_arm(), 20000, 7)),
            *map(_fk_digest, CHAINS)]


@pytest.mark.parametrize("name, digest", [
    ("bundled_arm",
     "cf07803450fb83f361147083dc9b867ee488a1ca9f14cf1262e83c3cb4438125"),
    ("offset_chain",
     "1c626947bf356846a61aa4f552c155485616bdcfdf30f082b37a4659c7c8f492"),
], ids=list(CHAINS))
def test_forward_kinematics_keeps_its_pinned_bits(name, digest):
    # the digests pin the closed-form D-H step, whose elementwise ops round
    # once apiece; test_fk_bits_do_not_depend_on_the_blas_kernel checks
    # the same poses under another kernel
    assert _fk_digest(name) == digest


def test_fk_bits_do_not_depend_on_the_blas_kernel():
    # OpenBLAS's Sandybridge kernels have no FMA, so a BLAS product in the
    # FK would round differently there than under the default kernel
    paths = (os.path.dirname(os.path.dirname(kinematics.__file__)),
             os.path.dirname(__file__), os.environ.get("PYTHONPATH", ""))
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge",
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run(
        [sys.executable, "-c", "import test_kinematics as t\n"
                               "print(*t._fk_digests())"],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == _fk_digests()


def test_workspace_is_deterministic(arm):
    a = sample_workspace(arm, 500, seed=42)
    b = sample_workspace(arm, 500, seed=42)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.stats == b.stats
    c = sample_workspace(arm, 500, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_workspace_batch_matches_single_pose_path(arm):
    n, seed = 50, 7
    cloud = sample_workspace(arm, n, seed)
    # replicate the documented draw order, then run the per-pose path
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(*arm.rom[row.joint_name], n) for row in arm.rows]
    for i in range(n):
        q = {row.joint_name: cols[j][i] for j, row in enumerate(arm.rows)}
        p = forward_kinematics(arm, q).position
        assert cloud.points[i].tobytes() == p.tobytes()


@pytest.mark.parametrize("seed", [0, 7, 11, 42, 2**63 - 1])
@pytest.mark.parametrize("n", [1, FK_CHUNK - 1, FK_CHUNK, FK_CHUNK + 1, 10001,
                               100000])
def test_chunked_workspace_fk_equals_one_batch_bitwise(arm, n, seed):
    rng = np.random.default_rng(seed)
    samples = np.column_stack([rng.uniform(*arm.rom[row.joint_name], n)
                               for row in arm.rows])
    whole = _fk_frame(arm, samples.T)[3].T
    assert sample_workspace(arm, n, seed).points.tobytes() == whole.tobytes()


def _with_cpus(monkeypatch, cpus):
    # sample_workspace takes its worker count from the CPU affinity
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


def _digest(cloud):
    return hashlib.sha256(cloud.points.tobytes()
                          + json.dumps(cloud.stats).encode()).hexdigest()


# both sides of one worker's slice and of FK_CHUNK, and tails of every size
@pytest.mark.parametrize("n", [
    1, FK_CHUNK // 2 - 1, FK_CHUNK // 2, FK_CHUNK // 2 + 1, FK_CHUNK - 1,
    FK_CHUNK, FK_CHUNK + 1, 3 * FK_CHUNK // 2, 3 * FK_CHUNK // 2 + 1,
    2 * FK_CHUNK + 1, 10001])
def test_workspace_is_the_same_on_one_worker_and_two(arm, monkeypatch, n):
    rng = np.random.default_rng(42)
    samples = np.column_stack([rng.uniform(*arm.rom[row.joint_name], n)
                               for row in arm.rows])
    whole = _fk_frame(arm, samples.T)[3].T
    digests = set()
    for cpus in (1, 2):
        _with_cpus(monkeypatch, cpus)
        cloud = sample_workspace(arm, n, seed=42)
        assert cloud.points.tobytes() == whole.tobytes()
        digests.add(_digest(cloud))
    assert len(digests) == 1


def test_concurrent_calls_under_fast_thread_switching_keep_the_bits(
        arm, monkeypatch):
    # four callers, each with its second worker, on two CPUs, switching
    # threads every microsecond: a row written by the wrong worker, or a
    # draw taken from the wrong place, changes a digest
    _with_cpus(monkeypatch, 2)
    n = 3 * FK_CHUNK + 5
    expected = {seed: _digest(sample_workspace(arm, n, seed))
                for seed in range(4)}
    got = {}

    def call(seed):
        got[seed] = _digest(sample_workspace(arm, n, seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(seed,))
                   for seed in expected]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


@pytest.mark.parametrize("failing", ["calling", "second"])
def test_a_worker_failure_propagates_and_every_thread_is_joined(
        arm, monkeypatch, failing):
    _with_cpus(monkeypatch, 2)
    caller, fk = threading.current_thread(), _fk_frame

    def flaky(*args):
        if (threading.current_thread() is caller) == (failing == "calling"):
            raise RuntimeError(f"FK failed on the {failing} worker")
        return fk(*args)

    monkeypatch.setattr(kinematics, "_fk_frame", flaky)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=failing):
        sample_workspace(arm, 3 * FK_CHUNK, seed=7)
    assert threading.active_count() == before


def test_fk_frame_of_an_array_and_of_its_columns_agree(arm):
    lo, hi = np.array([arm.rom[row.joint_name] for row in arm.rows]).T
    samples = np.random.default_rng(5).uniform(lo, hi, (1000, 7))
    columns = [samples[:, j].copy() for j in range(7)]
    assert (np.hstack(_fk_frame(arm, iter(columns))).tobytes()
            == np.hstack(_fk_frame(arm, samples.T)).tobytes())


def _reference_frame(chain, joints):
    # every column of every row, and p moved by a*c0 + d*z whether or not
    # a and d are zero: the D-H step before the liveness pass
    x, y, z, p = (np.eye(3, 4)[:, j:j + 1] for j in range(4))
    for row, q in zip(chain.rows, joints):
        theta = row.theta_offset + row.joint_sign * q
        ct, st_ = np.cos(theta), np.sin(theta)
        c0 = x * ct + y * st_
        if row.alpha == 0.0:
            c1, c2 = y * ct - x * st_, z
        elif row.alpha > 0.0:
            c1, c2 = z, x * st_ - y * ct
        else:
            c1, c2 = -z, y * ct - x * st_
        x, y, z, p = c0, c1, c2, p + row.a * c0 + row.d * z
    return x, y, z, p


@st.composite
def chains_and_joints(draw):
    # a and d each zero, of either sign, or not; alpha 0 or +-pi/2; any
    # offset and sign; joint values with zeros of either sign among them
    length = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))
    h = math.pi / 2.0
    rows = tuple(DHRow(draw(length), draw(length),
                       draw(st.sampled_from([0.0, h, -h])),
                       draw(st.floats(-4.0, 4.0)),
                       draw(st.sampled_from([1, -1])), name)
                 for name in JOINT_ORDER)
    chain = KinematicChain(rows=rows, rom=default_arm().rom)
    n = draw(st.integers(1, 6))
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))
    joints = [np.array(draw(st.lists(value, min_size=n, max_size=n)))
              for _ in JOINT_ORDER]
    return chain, joints


@settings(max_examples=400, deadline=None)
@given(chains_and_joints())
def test_the_position_alone_keeps_the_bits_of_the_whole_frame(case):
    chain, joints = case
    n = len(joints[0])
    reference = _reference_frame(chain, joints)
    whole = _fk_frame(chain, joints)
    for got, want in zip(whole, reference):
        # a column left at the identity's (3, 1) matches at either shape
        shape = np.broadcast_shapes(got.shape, want.shape)
        assert (np.broadcast_to(got, shape).tobytes()
                == np.broadcast_to(want, shape).tobytes())
    plan = _liveness(chain.rows, _POSITION)
    # a dead joint is never read
    alone = _fk_frame(chain, [q if uses_q else None
                              for q, (uses_q, _) in zip(joints, plan)], plan)
    assert alone[:3] == (None, None, None)
    assert (np.broadcast_to(alone[3], (3, n)).tobytes()
            == np.broadcast_to(whole[3], (3, n)).tobytes())


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("chain, undrawn", [(default_arm, {"theta_12"}),
                                            (_offset_chain, set())],
                         ids=["bundled_arm", "offset_chain"])
def test_workspace_draws_only_the_joints_that_move_the_point(
        monkeypatch, cpus, chain, undrawn):
    # every a of the bundled arm is 0, so its last wrist joint turns the
    # hand about the axis it points along
    _with_cpus(monkeypatch, cpus)
    chain = chain()
    joint_of = {chain.rom[name]: name for name in chain.joint_names}
    calls = collections.Counter()

    class Counted(np.random.Generator):
        def uniform(self, lo, hi, size):
            calls[joint_of[lo, hi]] += 1
            return super().uniform(lo, hi, size)

    n = 3 * FK_CHUNK + 5
    expected = sample_workspace(chain, n, seed=7)
    monkeypatch.setattr(np.random, "Generator", Counted)
    cloud = sample_workspace(chain, n, seed=7)
    slices = -(-n // (FK_CHUNK // 2))
    assert calls == {name: slices for name in chain.joint_names
                     if name not in undrawn}
    assert _digest(cloud) == _digest(expected)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("chain", [default_arm, _offset_chain],
                         ids=["bundled_arm", "offset_chain"])
@pytest.mark.parametrize("n, seed", [(1, 0), (FK_CHUNK + 1, 7),
                                     (100_000, 42)])
def test_max_reach_is_the_largest_point_norm_bit_for_bit(
        monkeypatch, cpus, chain, n, seed):
    # max_reach_m is emitted: the root of the largest x*x + y*y + z*z,
    # summed left to right, is np.linalg.norm's largest to the bit
    _with_cpus(monkeypatch, cpus)
    cloud = sample_workspace(chain(), n, seed)
    assert (cloud.stats["max_reach_m"]
            == float(np.linalg.norm(cloud.points, axis=1).max()))


@pytest.mark.parametrize("cpus, threads", [(1, 1), (2, 2)])
def test_every_worker_runs_full_slices(arm, monkeypatch, cpus, threads):
    # halving a worker's slice doubles the GIL handoffs of its numpy calls,
    # so every slice but a worker's last holds FK_CHUNK // 2 poses
    _with_cpus(monkeypatch, cpus)
    fk, sizes, lock = _fk_frame, {}, threading.Lock()

    def recorded(*args):
        frame = fk(*args)
        with lock:
            sizes.setdefault(threading.current_thread(),
                             []).append(frame[3].shape[1])
        return frame

    monkeypatch.setattr(kinematics, "_fk_frame", recorded)
    n = 3 * FK_CHUNK + 5
    sample_workspace(arm, n, seed=7)
    assert len(sizes) == threads
    assert sum(map(sum, sizes.values())) == n
    for slices in sizes.values():
        assert slices[:-1] == [FK_CHUNK // 2] * (len(slices) - 1)


@pytest.mark.parametrize("n, threads", [(1, 0), (FK_CHUNK, 0),
                                        (FK_CHUNK + 1, 1), (10**5, 1)])
def test_one_slice_starts_no_thread(arm, monkeypatch, n, threads):
    _with_cpus(monkeypatch, 4)
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    sample_workspace(arm, n, seed=7)
    assert len(started) == threads
    _with_cpus(monkeypatch, 1)
    sample_workspace(arm, n, seed=7)
    assert len(started) == threads


def _traced_peak(arm, n):
    sample_workspace(arm, 10, seed=7)
    tracemalloc.start()
    try:
        sample_workspace(arm, n, seed=7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cpus, slice_bytes", [
    # a slice per worker: the D-H step holds the old and the new frame and
    # its temporaries, a traced peak of 27.3 doubles a pose (0.89 MB at
    # FK_CHUNK // 2 poses) on one worker; two workers may peak at once, 1.6
    # to 1.7 MB. 40 doubles a pose leaves room on either count
    (2, FK_CHUNK * 8 * 40),
    (1, (FK_CHUNK // 2) * 8 * 40)], ids=["two_workers", "one_worker"])
@pytest.mark.parametrize("n", [100000, 1000000])
def test_workspace_memory_is_the_points_plus_one_slice(arm, monkeypatch, n,
                                                        cpus, slice_bytes):
    _with_cpus(monkeypatch, cpus)
    assert _traced_peak(arm, n) < 24 * n + slice_bytes


@pytest.mark.parametrize("n", [FK_CHUNK, 100000])
def test_one_worker_frees_the_old_axes_early(arm, monkeypatch, n):
    # each step is handed the only reference to its frame, frees the old x
    # and y axes once the new axes that mix them are formed, and a slice's
    # origin goes before the next slice's frames: 27.3 doubles a pose on
    # one worker, where a caller that held the old frame through the step,
    # and the last origin through the next slice, made 34.3
    _with_cpus(monkeypatch, 1)
    assert _traced_peak(arm, n) < 24 * n + (FK_CHUNK // 2) * 8 * 30


def test_workspace_stats_and_bounds(arm):
    cloud = sample_workspace(arm, 2000, seed=1)
    norms = np.linalg.norm(cloud.points, axis=1)
    assert cloud.stats["max_reach_m"] == pytest.approx(float(norms.max()),
                                                       rel=1e-15)
    assert cloud.stats["max_reach_m"] <= arm.reach_limit + 1e-9
    np.testing.assert_allclose(cloud.stats["bbox_min_m"],
                               cloud.points.min(axis=0), atol=1e-15)
    np.testing.assert_allclose(cloud.stats["bbox_max_m"],
                               cloud.points.max(axis=0), atol=1e-15)


@pytest.mark.parametrize("b, c, d", [(1e8, 1e-300, 1e-300),
                                     (4e153, 0.1, 0.1)])
def test_workspace_of_long_links_stays_within_the_reach(b, c, d):
    # nearly every pose sits at the reach limit, and FK rounds the
    # positions of such long links past it by an ulp
    arm = default_arm(b=b, c=c, d=d)
    cloud = sample_workspace(arm, 2000, seed=1)
    assert cloud.stats["max_reach_m"] <= arm.reach_limit * (1 + 1e-12)


def test_workspace_points_are_read_only(arm):
    cloud = sample_workspace(arm, 10, seed=0)
    assert not cloud.points.flags.writeable
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


def test_workspace_rejects_bad_n(arm):
    with pytest.raises(ValueError):
        sample_workspace(arm, 0, seed=0)


@pytest.fixture(scope="module")
def clouds(arm):
    # the bundled Workspace size at the seeds the outputs are checked at
    return {seed: sample_workspace(arm, 100_000, seed) for seed in (1, 7, 42)}


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_workspace_bbox_is_the_axis_reduction_bit_for_bit(clouds, seed):
    # min and max are exact, so a column at a time gives the same bits
    cloud = clouds[seed]
    for key, reduce in (("bbox_min_m", np.min), ("bbox_max_m", np.max)):
        assert (np.array(cloud.stats[key]).tobytes()
                == reduce(cloud.points, axis=0).tobytes())


@pytest.mark.parametrize("which", ["cloud", "random"])
def test_centroid_is_a_sequential_sum_of_each_column(clouds, which):
    # mean(axis=0) of an (n, 3) array adds row after row, with no pairwise
    # blocks, so a centroid folded over blocks of rows can keep its bits
    points = (clouds[7].points if which == "cloud"
              else np.random.default_rng(5).normal(0.3, 1.0, (10**6, 3)))
    n = len(points)
    folded = [np.add.accumulate(col)[-1] / n for col in points.T]
    assert points.mean(axis=0).tobytes() == np.array(folded).tobytes()
