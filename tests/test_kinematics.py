"""Arm kinematics: D-H rows, reference poses, ROM handling, workspace.

One batched builder computes every D-H transform: forward_kinematics and
dh_transform are its one-pose calls, and sample_workspace runs it over
slices. The row transform is checked against an elementary-transform
oracle (Rz * Tz * Tx * Rx composed here from scratch). Pinned sha256s of
forward_kinematics transforms, taken from the former scalar path, hold the
builder to its bits, and a workspace point is bitwise the position of its
pose.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from tendonsim import (DHRow, KinematicChain, RomError, default_arm,
                       dh_transform, forward_kinematics,
                       full_extension_joint_values, sample_workspace)
from tendonsim.kinematics import (DEFAULT_ROM_DEG, FK_CHUNK, JOINT_ORDER,
                                  _fk_transforms)

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
        KinematicChain(rows=arm.rows[:5], link_lengths=arm.link_lengths,
                       rom=arm.rom)
    rom = {k: v for k, v in arm.rom.items() if k != "theta_12"}
    with pytest.raises(ValueError, match="theta_12"):
        KinematicChain(rows=arm.rows, link_lengths=arm.link_lengths, rom=rom)
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
        KinematicChain(rows=arm.rows, link_lengths=arm.link_lengths, rom=rom)
    for bounds in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
        rom = {**arm.rom, "theta_21": bounds}
        with pytest.raises(ValueError, match="ROM interval for 'theta_21' "
                                             "must be finite"):
            KinematicChain(rows=arm.rows, link_lengths=arm.link_lengths,
                           rom=rom)


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
    with pytest.raises(ValueError, match="mode"):
        forward_kinematics(arm, [0.0] * 7, mode="loose")


def test_rom_violation_names_the_joint(arm):
    q = full_extension_joint_values()
    q["theta_21"] = -0.1   # below its 0 deg lower bound
    with pytest.raises(RomError, match="theta_21"):
        forward_kinematics(arm, q)


def test_clamp_mode_clips_into_rom(arm):
    q = full_extension_joint_values()
    q["theta_21"] = -0.1
    clamped = forward_kinematics(arm, q, mode="clamp")
    q["theta_21"] = 0.0
    exact = forward_kinematics(arm, q)
    np.testing.assert_array_equal(clamped.transform, exact.transform)


def test_non_finite_joint_values_are_rejected(arm):
    # clamping leaves a NaN as it is, and it must not reach the D-H path
    q = full_extension_joint_values()
    q["theta_22"] = math.nan
    with pytest.raises(ValueError, match="nan"):
        forward_kinematics(arm, q, mode="clamp")
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
    return KinematicChain(rows=rows, link_lengths={}, rom=default_arm().rom)


@pytest.mark.parametrize("chain, digest", [
    (default_arm(),
     "1d59488624482096f45440800f1401222d02b05251678aae4acf52de49cea64c"),
    (_offset_chain(),
     "e20d4ba6b7e3f33ef988e18ed70c0477af608d9372580a4c5f96af6fde6c1cfa"),
], ids=["bundled_arm", "offset_chain"])
def test_fk_transforms_keep_the_scalar_path_bits(chain, digest):
    # the digests were taken from the scalar math.cos / np.eye(4) @ ...
    # path that the batched builder replaced
    lo, hi = np.array([chain.rom[row.joint_name] for row in chain.rows]).T
    poses = np.random.default_rng(3).uniform(lo, hi, (20000, 7))
    h = hashlib.sha256()
    for q in poses:
        h.update(forward_kinematics(chain, q).transform.tobytes())
    assert h.hexdigest() == digest


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
    whole = _fk_transforms(arm, samples)[:, :3, 3]
    assert sample_workspace(arm, n, seed).points.tobytes() == whole.tobytes()


@pytest.mark.parametrize("n", [100000, 1000000])
def test_workspace_memory_is_the_points_plus_one_slice(arm, n):
    # one slice: its 7 samples, three (4, 4) transforms (the buffer, the
    # running product and the next) and a few per-pose vectors, with room
    slice_bytes = FK_CHUNK * 8 * 80
    sample_workspace(arm, 10, seed=7)
    tracemalloc.start()
    try:
        sample_workspace(arm, n, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * n + slice_bytes


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
