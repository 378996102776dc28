"""Force/displacement map of single actuators.

Expected values are recomputed from the closed-form element laws inside
each test; the literal constants freeze the results against drift. The
inverse map is additionally checked against a test-side bisection of a
test-side forward map, so the two directions never share code.
"""

import math

import numpy as np
import pytest
import yaml

from tendonsim import (ActuatorModel, ElasticElementSpec, ElementKind,
                       displacement_from_force, force_from_displacement)
from tendonsim.cli import DATA_DIR, parse_config

# reference parameter sets used throughout the file (bench-test values,
# slightly different from the bundled table-quoted ones)
T_KTS, T_R, T_MUP, T_KT, T_FTM = 3.236, 5.0, 0.1, 30.0, 112.4
C_KCS, C_KT, C_FTM = 10.44, 60.0, 252.9

SMALL_TABLE = ((0.0, 0.0), (1.0, 2.0), (2.0, 5.0), (3.0, 9.0), (4.0, 14.0))


def torsion_actuator(k_ts=T_KTS, r=T_R, mu_p=T_MUP, k_t=T_KT, F_tm=T_FTM):
    el = ElasticElementSpec.torsion_internal(
        k_ts=k_ts, pulley_radius_r=r, mu_p=mu_p, F_tm=F_tm)
    return ActuatorModel(element=el, k_t=k_t, rated_force=125.0,
                         rated_speed=220.0, label="torsion-ref")


def compression_actuator(k_cs=C_KCS, k_t=C_KT, F_tm=C_FTM):
    el = ElasticElementSpec.compression_external(k_cs=k_cs, F_tm=F_tm)
    return ActuatorModel(element=el, k_t=k_t, rated_force=250.0,
                         rated_speed=110.0, label="compression-ref")


def tabulated_actuator(table=SMALL_TABLE, k_t=10.0):
    el = ElasticElementSpec.tabulated(table)
    return ActuatorModel(element=el, k_t=k_t, rated_force=20.0,
                         rated_speed=50.0, label="tab-ref")


# --------------------------------------------------------------------------
# construction and validation


def test_torsion_k_e_and_k_ts_are_equivalent():
    a = torsion_actuator()
    k_e = T_KTS * 2.0 * math.pi * T_R ** 2
    el = ElasticElementSpec.torsion_internal(
        k_e=k_e, pulley_radius_r=T_R, mu_p=T_MUP, F_tm=T_FTM)
    b = ActuatorModel(element=el, k_t=T_KT, rated_force=125.0,
                      rated_speed=220.0)
    assert b.element.k_ts == pytest.approx(a.element.k_ts, rel=1e-14)
    assert b.d_max_total == pytest.approx(a.d_max_total, rel=1e-14)


def test_torsion_requires_exactly_one_stiffness():
    with pytest.raises(ValueError, match="exactly one"):
        ElasticElementSpec.torsion_internal(
            k_e=500.0, k_ts=3.2, pulley_radius_r=5.0, mu_p=0.1, F_tm=112.4)
    with pytest.raises(ValueError, match="exactly one"):
        ElasticElementSpec.torsion_internal(
            pulley_radius_r=5.0, mu_p=0.1, F_tm=112.4)


@pytest.mark.parametrize("kwargs", [
    dict(k_ts=-1.0, pulley_radius_r=5.0, mu_p=0.1, F_tm=112.4),
    dict(k_ts=3.2, pulley_radius_r=-5.0, mu_p=0.1, F_tm=112.4),
    dict(k_ts=3.2, pulley_radius_r=5.0, mu_p=1.0, F_tm=112.4),
    dict(k_ts=3.2, pulley_radius_r=5.0, mu_p=-0.1, F_tm=112.4),
    dict(k_ts=3.2, pulley_radius_r=5.0, mu_p=0.1, F_tm=-1.0),
])
def test_torsion_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        ElasticElementSpec.torsion_internal(**kwargs)


def test_quoted_travel_consistency_gate():
    # 2% off the law value passes, 10% off does not
    law = C_FTM / C_KCS
    ElasticElementSpec.compression_external(
        k_cs=C_KCS, F_tm=C_FTM, d_max=law * 1.019)
    with pytest.raises(ValueError, match="away from the element law"):
        ElasticElementSpec.compression_external(
            k_cs=C_KCS, F_tm=C_FTM, d_max=law * 1.10)


def test_tabulated_validation():
    with pytest.raises(ValueError, match="start at"):
        ElasticElementSpec.tabulated(((0.5, 0.0), (1.0, 2.0)))
    with pytest.raises(ValueError, match="strictly increasing"):
        ElasticElementSpec.tabulated(((0.0, 0.0), (1.0, 2.0), (1.0, 3.0)))
    with pytest.raises(ValueError, match="strictly increasing"):
        ElasticElementSpec.tabulated(((0.0, 0.0), (1.0, 2.0), (2.0, 2.0)))
    with pytest.raises(ValueError, match="at least 2"):
        ElasticElementSpec.tabulated(((0.0, 0.0),))


def test_actuator_validation():
    el = ElasticElementSpec.compression_external(k_cs=10.0, F_tm=100.0)
    with pytest.raises(ValueError, match="k_t"):
        ActuatorModel(element=el, k_t=0.0, rated_force=1.0, rated_speed=1.0)
    with pytest.raises(ValueError, match="rated_force"):
        ActuatorModel(element=el, k_t=10.0, rated_force=0.0, rated_speed=1.0)
    with pytest.raises(ValueError, match="rated_speed"):
        ActuatorModel(element=el, k_t=10.0, rated_force=1.0, rated_speed=-2.0)
    for field in ("k_t", "rated_force", "rated_speed"):
        for value in (math.inf, math.nan):
            kwargs = dict(k_t=10.0, rated_force=1.0, rated_speed=1.0)
            kwargs[field] = value
            with pytest.raises(ValueError, match=f"{field} must be finite "
                                                 f"and positive, got {value}"):
                ActuatorModel(element=el, **kwargs)
    # F_tm/k_t overflows, so the travel limit would be infinite
    with pytest.raises(ValueError, match="d_max_total must be finite"):
        ActuatorModel(element=el, k_t=5e-324, rated_force=1.0,
                      rated_speed=1.0)


def test_specs_are_immutable():
    a = torsion_actuator()
    with pytest.raises(AttributeError):
        a.k_t = 40.0
    with pytest.raises(AttributeError):
        a.element.F_tm = 200.0


# --------------------------------------------------------------------------
# forward map d(F)


def test_torsion_displacement_matches_law():
    a = torsion_actuator()
    F = 50.0
    expected = F * (1.0 - T_MUP) / T_KTS + F / T_KT
    assert displacement_from_force(a, F) == pytest.approx(expected, rel=1e-12)
    assert displacement_from_force(a, F) == pytest.approx(
        15.57272352698805, rel=1e-12)


def test_compression_displacement_matches_law():
    a = compression_actuator()
    assert displacement_from_force(a, 100.0) == pytest.approx(
        100.0 / C_KCS + 100.0 / C_KT, rel=1e-12)
    assert displacement_from_force(a, 100.0) == pytest.approx(
        11.245210727969349, rel=1e-12)


def test_displacement_limit_includes_tendon_stretch():
    a = torsion_actuator()
    expected = T_FTM * (1.0 - T_MUP) / T_KTS + T_FTM / T_KT
    assert a.d_max_total == pytest.approx(expected, rel=1e-12)
    assert a.d_max_total == pytest.approx(35.00748248866914, rel=1e-12)

    c = compression_actuator()
    assert c.d_max_total == pytest.approx(C_FTM / C_KCS + C_FTM / C_KT,
                                          rel=1e-12)
    assert c.d_max_total == pytest.approx(28.439137931034484, rel=1e-12)


def test_past_limit_only_tendon_stretches():
    c = compression_actuator()
    expected = c.d_max_total + (300.0 - C_FTM) / C_KT
    assert displacement_from_force(c, 300.0) == pytest.approx(expected,
                                                              rel=1e-12)
    assert displacement_from_force(c, 300.0) == pytest.approx(
        29.224137931034484, rel=1e-12)


def test_displacement_rejects_bad_force():
    a = torsion_actuator()
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            displacement_from_force(a, bad)


def test_array_arguments_name_the_first_bad_entry():
    a = tabulated_actuator()
    with pytest.raises(ValueError, match=r"got -2\.0$"):
        displacement_from_force(a, np.array([[1.0, -2.0], [3.0, -4.0]]))
    with pytest.raises(ValueError, match=r"d must be finite, got inf$"):
        force_from_displacement(a, np.array([1.0, math.inf, math.nan]))


def test_tabulated_displacement_interpolates():
    a = tabulated_actuator()
    # exact at knots (plus tendon share), linear between
    assert displacement_from_force(a, 5.0) == pytest.approx(2.0 + 0.5,
                                                            rel=1e-12)
    assert displacement_from_force(a, 7.0) == pytest.approx(2.5 + 0.7,
                                                            rel=1e-12)
    assert a.d_max_total == pytest.approx(4.0 + 1.4, rel=1e-12)
    assert displacement_from_force(a, 24.0) == pytest.approx(5.4 + 1.0,
                                                             rel=1e-12)


# --------------------------------------------------------------------------
# inverse map F(d)


def test_slack_tendon_carries_no_force():
    for a in (torsion_actuator(), compression_actuator(),
              tabulated_actuator()):
        assert force_from_displacement(a, -5.0) == 0.0
        assert force_from_displacement(a, -1e-12) == 0.0
        assert force_from_displacement(a, 0.0) == 0.0


def test_force_is_linear_inside_travel():
    a = torsion_actuator()
    k_et = T_KTS * T_KT / (T_KT * (1.0 - T_MUP) + T_KTS)
    assert k_et == pytest.approx(3.210742161661596, rel=1e-12)
    for d in (0.5, 5.0, 20.0, 34.9):
        assert force_from_displacement(a, d) == pytest.approx(k_et * d,
                                                              rel=1e-12)

    c = compression_actuator()
    k_et2 = C_KCS * C_KT / (C_KT + C_KCS)
    assert k_et2 == pytest.approx(8.892674616695059, rel=1e-12)
    for d in (1.0, 10.0, 28.0):
        assert force_from_displacement(c, d) == pytest.approx(k_et2 * d,
                                                              rel=1e-12)


def test_force_past_limit_has_tendon_slope():
    a = torsion_actuator()
    d = a.d_max_total + 3.0
    assert force_from_displacement(a, d) == pytest.approx(
        T_FTM + 3.0 * T_KT, rel=1e-12)


def test_map_is_continuous_at_limit():
    for a in (torsion_actuator(), compression_actuator(),
              tabulated_actuator()):
        b = a.d_max_total
        lo = force_from_displacement(a, b - 1e-9)
        hi = force_from_displacement(a, b + 1e-9)
        assert hi - lo == pytest.approx(0.0, abs=1e-6)
        assert force_from_displacement(a, b) == pytest.approx(a.F_tm,
                                                              rel=1e-9)


def _bisect_forward(forward, d, F_hi, tol=1e-13, iters=200):
    """Test-side inversion of a test-side forward map."""
    lo, hi = 0.0, F_hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if abs(forward(mid) - d) <= tol:
            return mid
        if forward(mid) < d:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_inverse_agrees_with_independent_bisection():
    a = tabulated_actuator()
    ds = [r[0] for r in SMALL_TABLE]
    fs = [r[1] for r in SMALL_TABLE]

    def forward(F):
        if F <= fs[-1]:
            return float(np.interp(F, fs, ds)) + F / 10.0
        return ds[-1] + fs[-1] / 10.0 + (F - fs[-1]) / 10.0

    for d in np.linspace(0.05, 7.0, 60):
        expected = _bisect_forward(forward, float(d), F_hi=100.0)
        assert force_from_displacement(a, float(d)) == pytest.approx(
            expected, abs=1e-6)


def test_tabulated_inverse_is_exact_at_every_knot(misa):
    # the total law is linear between the table forces, so each knot
    # (d_i + f_i/k_t, f_i) inverts without error
    knots = [(d + f / misa.k_t, f) for d, f in misa.element.table]
    tol = math.ulp(misa.d_max_total)
    for d, f in knots:
        assert force_from_displacement(misa, d) == f
        assert abs(displacement_from_force(
            misa, force_from_displacement(misa, d)) - d) <= tol
    ds = np.array([d for d, _ in knots])
    back = displacement_from_force(misa, force_from_displacement(misa, ds))
    assert np.all(np.abs(back - ds) <= tol)


def test_round_trip_both_directions():
    rng = np.random.default_rng(7)
    for a in (torsion_actuator(), compression_actuator(),
              tabulated_actuator()):
        for F in rng.uniform(0.0, 1.5 * a.F_tm, 200):
            d = displacement_from_force(a, float(F))
            assert force_from_displacement(a, d) == pytest.approx(
                float(F), abs=1e-6)
        for d in rng.uniform(0.0, 1.5 * a.d_max_total, 200):
            F = force_from_displacement(a, float(d))
            assert displacement_from_force(a, F) == pytest.approx(
                float(d), abs=1e-6)


# --------------------------------------------------------------------------
# series stiffness k_et


def test_effective_stiffness_closed_forms():
    a = torsion_actuator()
    assert a.k_et == pytest.approx(
        T_KTS * T_KT / (T_KT * (1.0 - T_MUP) + T_KTS), rel=1e-12)
    c = compression_actuator()
    assert c.k_et == pytest.approx(
        C_KCS * C_KT / (C_KT + C_KCS), rel=1e-12)


@pytest.mark.parametrize("name, old, new", [
    ("ica.yaml", None, None),
    ("eca.yaml", None, None),
    # the torsion spring by its raw stiffness, converted once to k_ts
    ("ica.yaml", "k_ts: 3.2 ", "k_e: 505.0 "),
])
def test_linear_constants_equal_their_closed_forms_bitwise(tmp_path, name,
                                                           old, new):
    text = (DATA_DIR / name).read_text()
    if old is not None:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    a = parse_config(path)
    # every constant from the file's own numbers, none from the model
    raw = yaml.safe_load(text)["actuator"]
    k_t, F_tm, mu_p = raw["k_t"], raw["F_tm"], raw.get("mu_p", 0.0)
    if "k_e" in raw:
        k_ts = raw["k_e"] / (2.0 * math.pi * raw["pulley_radius_r"] ** 2)
    else:
        k_ts = raw.get("k_ts", raw.get("k_cs"))
    d_max_total = F_tm * (1 - mu_p) / k_ts + F_tm / k_t
    assert a.d_max_total == d_max_total
    assert a.k_et == k_ts * k_t / (k_t * (1 - mu_p) + k_ts)
    d = 45.0  # the end of the bundled force/displacement sweep
    assert d > d_max_total
    assert force_from_displacement(a, d) == F_tm + (d - d_max_total) * k_t


def test_effective_stiffness_approaches_element_for_stiff_tendon():
    el = ElasticElementSpec.compression_external(k_cs=C_KCS, F_tm=C_FTM)
    a = ActuatorModel(element=el, k_t=1e9, rated_force=250.0,
                      rated_speed=110.0)
    assert a.k_et == pytest.approx(C_KCS, rel=1e-6)


def test_series_stiffness_survives_an_overflowing_product():
    # k_cs*k_t = 1e600 overflows, but k_et = 5e299 is finite, and so is
    # every force on the law
    a = compression_actuator(k_cs=1e300, k_t=1e300, F_tm=1e300)
    assert a.d_max_total == 2.0
    assert a.k_et == pytest.approx(5e299, rel=1e-15)
    assert force_from_displacement(a, 0.5) == pytest.approx(2.5e299,
                                                            rel=1e-15)
    assert displacement_from_force(a, 5e299) == pytest.approx(1.0, rel=1e-15)


def test_mu_p_stiffens_the_series_stage():
    frictionless = torsion_actuator(mu_p=0.0)
    a = torsion_actuator(mu_p=0.1)
    # friction takes part of the tension off the element, so the same force
    # needs less element deflection: the series stage looks stiffer
    assert a.k_et > frictionless.k_et
