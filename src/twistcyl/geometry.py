"""Differential geometry of twisted cylindrical shells.

Surface coordinates are (phi, z) on a cylinder of radius R; a twist rotates
the cross section at height z by the angle theta(z). Every deformed-surface
tensor depends on the twist only through the local rate

    f(z) = theta'(z),

which is the constant alpha for a uniform twist theta = alpha z and
2 a0 z for a linear ramp theta = a0 z^2. The covariant
deformed metric is [[R^2, R^2 f], [R^2 f, 1 + R^2 f^2]] with determinant R^2
for any f, and the curvature scalars (K = 0, M = 1/(2R)) and the resulting
curvature-induced quantum potential are insensitive to the twist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularMetric

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"

# hbar^2 / (2 m_e) in eV nm^2, from CODATA hbar and m_e.
HBAR_SQ_OVER_2ME_EV_NM2 = 0.0380998

_DET_RTOL = 1e-12
_TINY = 2.0**-1022  # smallest normal float: below it fewer than 53 bits

# centred-difference step of TwistProfile.profiled, relative to max(1, |z|),
# and of metric_from_embedding_fd: near eps^(1/3), which balances truncation
# against rounding
_FD_STEP = 1e-5
# second-difference step of second_form_from_embedding_fd: near eps^(1/4),
# the same balance for a difference divided by the step squared
_FD_STEP2 = 1e-4


def _real(x) -> float:
    """The float of a float or an int of any size; +-inf past the range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def square(x):
    """x * x of a float, an int of any size or an array. IEEE multiplication
    rounds the exact square once, so an array gives each element's scalar
    bits; inf past the float range, with no warning."""
    if isinstance(x, (float, int)):  # numpy's call costs about 4 us a scalar
        x = _real(x)
        return x * x
    with np.errstate(over="ignore"):
        x = np.asarray(x, dtype=float)
        return x * x


@dataclass(frozen=True)
class PhysicsParams:
    """Particle constants; every energy and length scale derives from these."""

    hbar: float = 1.0
    mass: float = 1.0  # effective mass

    def __post_init__(self):
        if not 0.0 < self.hbar < math.inf:  # NaN fails too
            raise ValueError("hbar must be positive and finite")
        if not 0.0 < self.mass < math.inf:
            raise ValueError("mass must be positive and finite")
        if not _TINY <= self.hbar2_over_2m < math.inf:
            raise ValueError(
                f"t = hbar^2/(2m) = {self.hbar2_over_2m} of hbar = "
                f"{self.hbar}, mass = {self.mass} is not finite or is below "
                "the smallest normal float")

    @classmethod
    def electron_nm_ev(cls) -> "PhysicsParams":
        """Electron in nm/eV units: hbar^2/(2m) = 0.0380998 eV nm^2."""
        return cls(hbar=1.0, mass=1.0 / (2.0 * HBAR_SQ_OVER_2ME_EV_NM2))

    @property
    def hbar2_over_2m(self) -> float:
        return square(self.hbar) / (2.0 * self.mass)


@dataclass(frozen=True)
class CylinderGeometry:
    """Radius and longitudinal extent of the twisted section or box."""

    radius: float
    length: float

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:  # NaN fails too
            raise ValueError("radius must be positive and finite")
        if not 0.0 < self.length < math.inf:
            raise ValueError("length must be positive and finite")


@dataclass(frozen=True)
class TwistProfile:
    """Rotation angle theta(z) of the cross section and the local twist rate
    f = theta'.

    Each callable accepts a float or an array. Use the constructors:
    ``constant`` for theta = a z (f is then the number a), ``linear_ramp``
    for theta = a0 z^2 (f = 2 a0 z), or ``profiled`` for a
    caller-supplied angle. ``profiled`` fills in f, when it is not given, by
    a centred difference of theta with a step of 1e-5 max(1, |z|). For
    theta = 0.3 z + 0.2 z sin z on [0, 5] it holds to 3e-10; the error grows
    with |z| and with the size of theta, so supply f when you have it.
    """

    theta: Callable
    f: Callable

    @classmethod
    def constant(cls, alpha: float) -> "TwistProfile":
        a = float(alpha)
        return cls(theta=lambda z: a * z, f=lambda z: a)

    @classmethod
    def linear_ramp(cls, alpha0: float) -> "TwistProfile":
        a0 = float(alpha0)
        # a0 (2 z), not 2 a0 z: 2 a0 overflows for |a0| above about 9e307
        return cls(theta=lambda z: a0 * z * z, f=lambda z: a0 * (2.0 * z))

    @classmethod
    def profiled(cls, theta: Callable,
                 f: Callable | None = None) -> "TwistProfile":
        if f is None:
            def f(z):
                h = _FD_STEP * np.maximum(1.0, np.abs(z))
                return (theta(z + h) - theta(z - h)) / (2.0 * h)
        return cls(theta=theta, f=f)


@dataclass(frozen=True)
class Metric2:
    """Symmetric 2x2 tensor on (phi, z) with an explicit variance flag: the
    metric, the strain and the second fundamental form. A component is a
    float or an array over points; ``as_array`` and ``contract`` take floats.

    Contracting two tensors of the same variance is rejected; raising or
    lowering happens only through ``inverse_metric``.
    """

    g_pp: float
    g_pz: float
    g_zz: float
    variance: str = COVARIANT

    def __post_init__(self):
        if self.variance not in (COVARIANT, CONTRAVARIANT):
            raise ValueError(f"unknown variance {self.variance!r}")

    def as_array(self) -> np.ndarray:
        return np.array([[self.g_pp, self.g_pz],
                         [self.g_pz, self.g_zz]])

    @property
    def det(self) -> float:
        # a few eps det_scale off, as the stored g_zz = 1 + R^2 f^2 already is;
        # past the float range, det and det_scale read inf or NaN silently
        with np.errstate(over="ignore", invalid="ignore"):
            return self.g_pp * self.g_zz - self.g_pz * self.g_pz

    @property
    def det_scale(self):
        """|g_pp g_zz| + g_pz^2, of which ``det`` keeps about eps."""
        with np.errstate(over="ignore", invalid="ignore"):
            return abs(self.g_pp * self.g_zz) + square(self.g_pz)

    def contract(self, other: "Metric2") -> np.ndarray:
        """Mixed-index product g_ik h^kj (or the reverse); variances must differ."""
        if self.variance == other.variance:
            raise ValueError("cannot contract two tensors of equal variance")
        return self.as_array() @ other.as_array()


@dataclass(frozen=True)
class CurvatureData:
    """Second fundamental form plus mean and Gaussian curvature scalars."""

    second_form: Metric2
    mean: float      # 1/length
    gaussian: float  # 1/length^2


def undeformed_metric(geom: CylinderGeometry) -> Metric2:
    """Covariant metric diag(R^2, 1) of the straight cylinder."""
    return Metric2(square(geom.radius), 0.0, 1.0, COVARIANT)


def strain_from_twist(geom: CylinderGeometry, f) -> Metric2:
    """Green-Lagrange strain of a twist at the local rate f = theta', a float
    or an array over heights: a covariant, dimensionless ``Metric2``.

    The displacement has the single contravariant component u^phi = theta(z);
    lowering with diag(R^2, 1) and keeping the quadratic term gives
    eps_pz = R^2 f / 2 and eps_zz = R^2 f^2 / 2. The Christoffel symbols of
    the cylinder vanish, so plain partial derivatives suffice.
    """
    r2 = square(geom.radius)
    # groupings match twisted_metric bit for bit, so g + 2 eps reproduces it
    # exactly: eps_pz doubles back to r2*f, eps_zz to r2*f^2
    with np.errstate(over="ignore", invalid="ignore"):
        return Metric2(0.0, 0.5 * (r2 * f), 0.5 * (r2 * square(f)), COVARIANT)


def metric_from_strain(base: Metric2, strain: Metric2) -> Metric2:
    """Deformed covariant metric g' = g + 2 eps; both must be covariant."""
    if base.variance != COVARIANT or strain.variance != COVARIANT:
        raise ValueError("base metric and strain must be covariant")
    out = Metric2(base.g_pp + 2.0 * strain.g_pp,
                  base.g_pz + 2.0 * strain.g_pz,
                  base.g_zz + 2.0 * strain.g_zz,
                  COVARIANT)
    if not np.all((out.g_pp > 0.0) & (out.det > 0.0)):
        raise ValueError("deformed metric is not positive definite")
    return out


def twisted_metric(geom: CylinderGeometry, f_value: float) -> Metric2:
    """Covariant metric of the twisted cylinder at local twist value f; a
    component past the float range reads inf or NaN, with no warning."""
    r2 = square(geom.radius)
    with np.errstate(over="ignore", invalid="ignore"):
        return Metric2(r2, r2 * f_value, 1.0 + r2 * square(f_value), COVARIANT)


def inverse_metric(g: Metric2) -> Metric2:
    """Contravariant inverse of a covariant 2x2 metric, point by point;
    SingularMetric where det is not above 1e-12 det_scale, or is NaN."""
    if g.variance != COVARIANT:
        raise ValueError("inverse_metric expects a covariant metric")
    det = g.det
    singular = np.logical_not(det > _DET_RTOL * g.det_scale)
    if np.any(singular):
        bad = np.asarray(det)[singular].flat[0]
        raise SingularMetric(f"metric determinant {bad:.3e} below tolerance")
    return Metric2(g.g_zz / det, -g.g_pz / det, g.g_pp / det, CONTRAVARIANT)


def surface_curvatures(geom: CylinderGeometry, f_value: float) -> CurvatureData:
    """Second fundamental form and curvatures of the twisted cylinder.

    h = [[-R, -R f], [-R f, -R f^2]] has det h = 0, so the Gaussian
    curvature K = det h / det g vanishes identically, and the mean curvature
    stays 1/(2R) no matter how strong the twist. Returned in closed form;
    ``metric_from_embedding_fd`` and ``second_form_from_embedding_fd`` are
    the independent numerical checks on the two fundamental forms. A
    component past the float range reads inf, with no warning.
    """
    r = geom.radius
    with np.errstate(over="ignore"):
        h = Metric2(-r, -r * f_value, -r * square(f_value), COVARIANT)
    return CurvatureData(second_form=h, mean=1.0 / (2.0 * r), gaussian=0.0)


def da_costa_potential(curv: CurvatureData, phys: PhysicsParams) -> float:
    """Curvature-induced potential -hbar^2/(2m) (M^2 - K) of a confined particle.

    For any twisted cylinder this evaluates to -hbar^2 / (8 m R^2).
    """
    return -phys.hbar2_over_2m * (square(curv.mean) - curv.gaussian)


def _embedding_fd(geom: CylinderGeometry, twist: TwistProfile,
                  point: tuple[float, float], step: float):
    """The embedding r(phi, z) = (R cos(phi + theta(z)),
    R sin(phi + theta(z)), z) at (i, j) steps from ``point``, as a function
    of (i, j), and the tangents r_phi, r_z by central differences."""
    r = geom.radius
    phi, z = point

    def emb(i: int, j: int) -> np.ndarray:
        angle = phi + i * step + twist.theta(z + j * step)
        return np.array([r * math.cos(angle), r * math.sin(angle),
                         z + j * step])

    return (emb, (emb(1, 0) - emb(-1, 0)) / (2.0 * step),
            (emb(0, 1) - emb(0, -1)) / (2.0 * step))


def metric_from_embedding_fd(geom: CylinderGeometry, twist: TwistProfile,
                             point: tuple[float, float]) -> Metric2:
    """First fundamental form from central differences of the embedding map.

    r(phi, z) = (R cos(phi + theta(z)), R sin(phi + theta(z)), z). Uses only
    the rotation angle, never f(z), so it serves as an oracle for
    ``twisted_metric``. Second-order accurate: with its step of 1e-5 the
    components are good to about 1e-9.
    """
    _, d_phi, d_z = _embedding_fd(geom, twist, point, _FD_STEP)
    return Metric2(float(d_phi @ d_phi), float(d_phi @ d_z), float(d_z @ d_z),
                   COVARIANT)


def second_form_from_embedding_fd(geom: CylinderGeometry, twist: TwistProfile,
                                  point: tuple[float, float]) -> Metric2:
    """Second fundamental form h_ij = r_ij . n from central differences of
    the embedding map of ``metric_from_embedding_fd``.

    n is the unit cross product r_phi x r_z of the difference tangents,
    which points outward. Like the metric it reads only theta(z), so it
    serves as an oracle for ``surface_curvatures``. With its step of 1e-4
    the second differences are good to about 1e-7 for R and f of order 1.
    """
    emb, d_phi, d_z = _embedding_fd(geom, twist, point, _FD_STEP2)
    normal = np.cross(d_phi, d_z)
    normal /= np.linalg.norm(normal)
    # n . r at each offset, so the differences act on numbers
    at = {(i, j): float(emb(i, j) @ normal)
          for i in (-1, 0, 1) for j in (-1, 0, 1)}
    return Metric2((at[1, 0] - 2.0 * at[0, 0] + at[-1, 0]) / _FD_STEP2**2,
                   (at[1, 1] - at[1, -1] - at[-1, 1] + at[-1, -1])
                   / (4.0 * _FD_STEP2**2),
                   (at[0, 1] - 2.0 * at[0, 0] + at[0, -1]) / _FD_STEP2**2,
                   COVARIANT)
