"""Series-elastic actuator model: invertible piecewise force/displacement map.

An actuator is an elastic element in series with a tendon of stiffness k_t.
Three element kinds are supported:

  * an internal torsion spring behind the output pulley (tendon-equivalent
    stiffness k_ts in N/mm, pulley radius r, routing-pulley friction mu_p),
  * an external compression spring sleeved around the motor shell (k_cs in
    N/mm, no friction term),
  * a tabulated nonlinear curve supplied as (displacement, force) pairs.

Tendon tension F_t and motor-side tendon displacement d obey, while the
element is inside its travel range (0 <= F_t <= F_tm):

    d = (F_t - mu_p*F_t)/k_ts + F_t/k_t      torsion kind
    d = F_t/k_cs + F_t/k_t                   compression kind
    d = d_table(F_t) + F_t/k_t               tabulated kind

Both linear kinds run this law on the stiffness their config gives, stored
as k_ts; a torsion spring given by its raw k_e (Nmm/rad) is converted once,
k_ts = k_e/(2*pi*r^2). The actuator derives its series stiffness
k_et = k_ts*k_t/(k_t*(1-mu_p) + k_ts) once, at construction (as
k_ts/((1-mu_p) + k_ts/k_t) where the product k_ts*k_t overflows).

Past the element limit only the tendon keeps stretching:

    d = d_max_total + (F_t - F_tm)/k_t

where d_max_total is the displacement at F_tm including tendon stretch. It is
computed from the element law at construction, never taken from user input,
so the two branches meet continuously. A slack tendon (d < 0) carries no
force.

The inverse f_d(d) is closed-form for every kind. The tabulated law is
piecewise linear in F_t with knots at the table forces, so its inverse is
exactly the linear interpolation through the knots (d_i + f_i/k_t, f_i),
built once per actuator. Both maps take a float (and return a float) or an
array of any shape (and return an array of that shape).

Units in this module are millimeters and newtons throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "ElementKind",
    "ElasticElementSpec",
    "ActuatorModel",
    "displacement_from_force",
    "force_from_displacement",
]

# the models work in mm; joint and dynamics convert at their SI interfaces
MM_PER_M = 1000.0

# Relative slack allowed between the user-quoted travel limit and the limit
# implied by the element's own law. Published parameter sets are only about
# 2% self-consistent, so construction tolerates that much and no more.
CONSISTENCY_TOL = 0.02


class ElementKind(Enum):
    TORSION_SPRING_INTERNAL = "torsion_internal"
    COMPRESSION_SPRING_EXTERNAL = "compression_external"
    TABULATED = "tabulated"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _torsion_arm(r: float) -> float:
    """2*pi*r^2, the factor in k_e = k_ts*2*pi*r^2; inf past float range."""
    try:
        return 2.0 * math.pi * r ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ElasticElementSpec:
    """Piecewise elastic law of one actuator's spring stage.

    Fields:
        kind: element construction (torsion / compression / tabulated).
        k_ts: tendon-equivalent element stiffness (N/mm) that the law runs
            on, as given: k_ts, or k_e/(2*pi*r^2) once, for the torsion kind;
            k_cs for the compression kind; None for tabulated.
        d_max: element travel limit measured as tendon displacement (mm),
            excluding tendon stretch. None takes the law's travel at F_tm.
        F_tm: tension at which the element reaches its limit (N).
        pulley_radius_r: output pulley radius in mm (torsion kind only).
        mu_p: internal routing-pulley friction coefficient (torsion kind
            only, 0 otherwise). 0 <= mu_p < 1.
        table: ordered (displacement mm, force N) pairs, strictly increasing
            in both columns, starting at (0, 0). Tabulated kind only.
    """

    kind: ElementKind
    k_ts: Optional[float]
    d_max: Optional[float]
    F_tm: float
    pulley_radius_r: Optional[float] = None
    mu_p: float = 0.0
    table: Optional[Tuple[Tuple[float, float], ...]] = None
    # the table's read-only displacement and force columns; None otherwise
    table_d: Optional[np.ndarray] = field(default=None, init=False,
                                          repr=False, compare=False)
    table_F: Optional[np.ndarray] = field(default=None, init=False,
                                          repr=False, compare=False)

    def __post_init__(self) -> None:
        _require(math.isfinite(self.F_tm) and self.F_tm > 0,
                 f"F_tm must be positive, got {self.F_tm}")
        _require(0.0 <= self.mu_p < 1.0,
                 f"mu_p must satisfy 0 <= mu_p < 1, got {self.mu_p}")
        _require(self.mu_p == 0.0
                 or self.kind is ElementKind.TORSION_SPRING_INTERNAL,
                 f"{self.kind.value} element has no pulley friction; mu_p "
                 f"must be 0")

        if self.kind is ElementKind.TABULATED:
            _require(self.k_ts is None, "tabulated element must not set k_ts")
            _require(self.table is not None and len(self.table) >= 2,
                     "tabulated element requires a table of at least 2 rows")
            d, F = np.array(self.table, dtype=float).T.copy()
            _require(d[0] == F[0] == 0.0,
                     "tabulated curve must start at (0, 0)")
            _require((np.diff(d) > 0).all(),
                     "table displacement column must be strictly increasing")
            _require((np.diff(F) > 0).all(),
                     "table force column must be strictly increasing")
            _require((self.d_max, self.F_tm) == (d[-1], F[-1]),
                     "tabulated d_max and F_tm must equal the last table row")
            d.flags.writeable = F.flags.writeable = False
            object.__setattr__(self, "table_d", d)
            object.__setattr__(self, "table_F", F)
            return

        _require(self.k_ts is not None and self.k_ts > 0,
                 f"{self.kind.value} element requires a stiffness > 0 "
                 f"(N/mm), got {self.k_ts}")
        _require(self.table is None, "linear element must not carry a table")
        if self.kind is ElementKind.TORSION_SPRING_INTERNAL:
            r = self.pulley_radius_r
            _require(r is not None and r > 0,
                     "torsion element requires pulley_radius_r > 0 (mm)")
            k_e = self.k_ts * _torsion_arm(r)  # r enters k_e, never the law
            if not math.isfinite(k_e):
                raise ValueError(f"k_e = k_ts*2*pi*r^2 is {k_e} Nmm/rad "
                                 f"at k_ts={self.k_ts} N/mm and "
                                 f"pulley_radius_r={r} mm; it must be finite")
        # The quoted (d_max, F_tm) pair must agree with the element's own
        # law; published prototype tables are only ~2% self-consistent.
        law = float(self.displacement_at(self.F_tm))
        _require(law > 0 and math.isfinite(law),
                 f"the element law's travel at F_tm={self.F_tm} N is "
                 f"{law} mm; it must be > 0 and finite")
        if self.d_max is None:
            object.__setattr__(self, "d_max", law)
        _require(math.isfinite(self.d_max) and self.d_max > 0,
                 f"d_max must be positive, got {self.d_max}")
        rel = abs(self.d_max - law) / law
        _require(rel <= CONSISTENCY_TOL,
                 f"d_max={self.d_max} mm is {rel * 100:.3g}% away from the "
                 f"element law's {law:g} mm at F_tm={self.F_tm} N "
                 f"(tolerance {CONSISTENCY_TOL:.0%})")

    # -- constructors -----------------------------------------------------

    @classmethod
    def torsion_internal(cls, *, pulley_radius_r: float, mu_p: float,
                         F_tm: float, k_e: Optional[float] = None,
                         k_ts: Optional[float] = None,
                         d_max: Optional[float] = None) -> "ElasticElementSpec":
        """Torsion-spring element from k_ts (N/mm) or k_e (Nmm/rad), converted
        once to k_ts = k_e/(2*pi*r^2). d_max=None takes the law's travel."""
        _require((k_e is None) != (k_ts is None),
                 "give exactly one of k_e or k_ts")
        if k_e is not None:
            k_ts = k_e / _torsion_arm(pulley_radius_r)
        return cls(kind=ElementKind.TORSION_SPRING_INTERNAL, k_ts=k_ts,
                   pulley_radius_r=pulley_radius_r, mu_p=mu_p,
                   d_max=d_max, F_tm=F_tm)

    @classmethod
    def compression_external(cls, *, k_cs: float, F_tm: float,
                             d_max: Optional[float] = None) -> "ElasticElementSpec":
        """Compression-spring element; d_max=None takes the law's travel."""
        return cls(kind=ElementKind.COMPRESSION_SPRING_EXTERNAL, k_ts=k_cs,
                   d_max=d_max, F_tm=F_tm)

    @classmethod
    def tabulated(cls, table) -> "ElasticElementSpec":
        """Tabulated element; d_max/F_tm are the last table row."""
        rows = tuple((float(d), float(f)) for d, f in table)
        _require(len(rows) >= 2, "tabulated element requires at least 2 rows")
        return cls(kind=ElementKind.TABULATED, k_ts=None,
                   d_max=rows[-1][0], F_tm=rows[-1][1], table=rows)

    # -- element law ------------------------------------------------------

    def displacement_at(self, F_t):
        """Element-share displacement (mm) at tension F_t (float or array),
        tendon excluded.

        Past F_tm the element is pinned at its limit displacement.
        """
        F = np.minimum(F_t, self.F_tm)
        if self.kind is ElementKind.TABULATED:
            return np.interp(F, self.table_F, self.table_d)
        # friction F_f = mu_p*F_t is taken off the element share only. The
        # law can overflow only at construction, whose check on its value
        # at F_tm then fails, so it overflows without numpy's warning.
        with np.errstate(all="ignore"):
            return F * (1.0 - self.mu_p) / self.k_ts


@dataclass(frozen=True)
class ActuatorModel:
    """One compliant actuator: elastic element plus series tendon.

    Fields:
        element: the elastic element spec.
        k_t: series tendon stiffness (N/mm).
        rated_force: motor-side rated tendon force (N).
        rated_speed: rated tendon contraction speed (mm/s).
        label: free-form name; equality ignores it, so two actuators that
            differ only in label compare equal.
    """

    element: ElasticElementSpec
    k_t: float
    rated_force: float
    rated_speed: float
    label: str = field(default="", compare=False)
    # displacement at F_tm including tendon stretch; derived, see module doc
    d_max_total: float = field(init=False, repr=False, compare=False)
    # series stiffness of element plus tendon (N/mm); None for tabulated
    k_et: Optional[float] = field(init=False, repr=False, compare=False)
    # knots d_i of the tabulated inverse, at element.table_F; None if linear
    knots_d: Optional[np.ndarray] = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self) -> None:
        for name in ("k_t", "rated_force", "rated_speed"):
            v = getattr(self, name)
            _require(math.isfinite(v) and v > 0,
                     f"{name} must be finite and positive, got {v}")
        el = self.element
        total = float(el.displacement_at(el.F_tm) + el.F_tm / self.k_t)
        _require(math.isfinite(total),
                 f"d_max_total must be finite, got {total} mm")
        object.__setattr__(self, "d_max_total", total)
        k_et = knots_d = None
        if el.kind is ElementKind.TABULATED:
            knots_d = el.table_d + el.table_F / self.k_t
            knots_d.flags.writeable = False
        else:
            # 1/k_et = (1-mu_p)/k_ts + 1/k_t; mu_p = 0 leaves k_t exact
            k_et = el.k_ts * self.k_t / (self.k_t * (1.0 - el.mu_p) + el.k_ts)
            if not math.isfinite(k_et):   # k_ts*k_t overflowed, k_et did not
                k_et = el.k_ts / ((1.0 - el.mu_p) + el.k_ts / self.k_t)
        object.__setattr__(self, "k_et", k_et)
        object.__setattr__(self, "knots_d", knots_d)

    @property
    def F_tm(self) -> float:
        return self.element.F_tm


def displacement_from_force(actuator: ActuatorModel, F_t):
    """Tendon displacement d (mm) at tension F_t (N). Strictly increasing.

    Element deflection plus tendon stretch up to F_tm; tendon-only stretch
    beyond. F_t is a float or an array and must be finite and >= 0.
    """
    F = np.asarray(F_t, dtype=float)
    ok = np.isfinite(F) & (F >= 0)
    if not ok.all():
        raise ValueError(f"F_t must be finite and >= 0, got {F[~ok].flat[0]}")
    el = actuator.element
    d = np.where(F <= el.F_tm, el.displacement_at(F) + F / actuator.k_t,
                 actuator.d_max_total + (F - el.F_tm) / actuator.k_t)
    return d if F.ndim else float(d)


def force_from_displacement(actuator: ActuatorModel, d):
    """Tendon tension F_t (N) at displacement d (mm), a float or an array.

    Exact inverse of displacement_from_force for d >= 0. A slack tendon
    (d < 0) carries no compression: returns 0. Raises ValueError if d is
    not finite, or if the force overflows (a huge k_t past the travel
    limit), naming the first such entry.
    """
    d_arr = np.asarray(d, dtype=float)
    finite = np.isfinite(d_arr)
    if not finite.all():
        raise ValueError(f"d must be finite, got {d_arr[~finite].flat[0]}")
    with np.errstate(all="ignore"):  # an overflow fails the check below
        if actuator.k_et is not None:
            F = actuator.k_et * d_arr
        else:
            F = np.interp(d_arr, actuator.knots_d, actuator.element.table_F)
        tendon_only = (actuator.F_tm
                       + (d_arr - actuator.d_max_total) * actuator.k_t)
    F = np.where(d_arr >= actuator.d_max_total, tendon_only, F)
    F = np.where(d_arr <= 0.0, 0.0, F)
    finite = np.isfinite(F)
    if not finite.all():
        raise ValueError(f"the force at d={d_arr[~finite].flat[0]} mm is "
                         f"{F[~finite].flat[0]} N; it must be finite")
    return F if d_arr.ndim else float(F)
