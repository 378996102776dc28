"""Arm kinematics: D-H rows, reference poses, ROM handling, workspace.

The row transform is checked against an elementary-transform oracle
(Rz * Tz * Tx * Rx composed here from scratch); the batch sampling path is
checked against the single-pose path on replicated draws.
"""

import math

import numpy as np
import pytest

from tendonsim import (DHRow, KinematicChain, RomError, default_arm,
                       dh_transform, forward_kinematics,
                       full_extension_joint_values, sample_workspace)
from tendonsim.kinematics import (DEFAULT_ROM_DEG, FK_CHUNK, JOINT_ORDER,
                                  _batch_fk_positions)

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
    with pytest.raises(ValueError, match="alpha"):
        DHRow(a=0.0, d=0.0, alpha=0.5, theta_offset=0.0, joint_sign=1,
              joint_name="q")
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
    # past ~7.7e153 m the squared coordinates of a position overflow
    for b in (1e308, 1e154, math.inf):
        with pytest.raises(ValueError, match="too large for the norm"):
            default_arm(b=b)
    default_arm(b=7e153)


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
        np.testing.assert_allclose(cloud.points[i], p, atol=1e-12)


@pytest.mark.parametrize("n", [FK_CHUNK - 1, FK_CHUNK, 10001])
def test_chunked_workspace_fk_equals_one_batch_bitwise(arm, n):
    seed = 11
    rng = np.random.default_rng(seed)
    samples = np.column_stack([rng.uniform(*arm.rom[row.joint_name], n)
                               for row in arm.rows])
    whole = _batch_fk_positions(arm, samples)
    assert sample_workspace(arm, n, seed).points.tobytes() == whole.tobytes()


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
