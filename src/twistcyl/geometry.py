"""Differential geometry of twisted cylindrical shells.

Surface coordinates are (phi, z) on a cylinder of radius R; a twist rotates
the cross section at height z by the angle theta(z) = alpha(z) * z. Every
deformed-surface tensor depends on the twist only through the local rate

    f(z) = theta'(z),

which reduces to the constant rate alpha for a uniform twist. The covariant
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

NATURAL = "natural"
ELECTRON_NM_EV = "electron_nm_eV"

# hbar^2 / (2 m_e) in eV nm^2, from CODATA hbar and m_e.
HBAR_SQ_OVER_2ME_EV_NM2 = 0.0380998

_DET_RTOL = 1e-12

# centred-difference step of TwistProfile.profiled, relative to max(1, |z|):
# near eps^(1/3), which balances truncation against rounding
_FD_STEP_F = 1e-5


@dataclass(frozen=True)
class PhysicsParams:
    """Particle constants; every energy and length scale derives from these."""

    hbar: float = 1.0
    mass: float = 1.0  # effective mass
    unit_system: str = NATURAL

    def __post_init__(self):
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.unit_system not in (NATURAL, ELECTRON_NM_EV):
            raise ValueError(f"unknown unit system {self.unit_system!r}")

    @classmethod
    def natural(cls) -> "PhysicsParams":
        return cls()

    @classmethod
    def electron_nm_ev(cls) -> "PhysicsParams":
        """Electron in nm/eV units: hbar^2/(2m) = 0.0380998 eV nm^2."""
        return cls(hbar=1.0, mass=1.0 / (2.0 * HBAR_SQ_OVER_2ME_EV_NM2),
                   unit_system=ELECTRON_NM_EV)

    @property
    def hbar2_over_2m(self) -> float:
        return self.hbar**2 / (2.0 * self.mass)


@dataclass(frozen=True)
class CylinderGeometry:
    """Radius and longitudinal extent of the twisted section or box."""

    radius: float
    length: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.length <= 0.0:
            raise ValueError("length must be positive")


@dataclass(frozen=True)
class TwistProfile:
    """Rotation angle theta(z) of the cross section and the local twist rate
    f = theta'.

    Each callable accepts a float or an array. Use the constructors:
    ``constant`` for theta = a z (``rate`` is then a), ``linear_ramp`` for
    theta = a0 z^2 (the rate alpha(z) = a0 z), or ``profiled`` for a
    caller-supplied angle. ``profiled`` fills in f, when it is not given, by
    a centred difference of theta with a step of 1e-5 max(1, |z|). For
    theta = 0.3 z + 0.2 z sin z on [0, 5] it holds to 3e-10; the error grows
    with |z| and with the size of theta, so supply f when you have it.
    """

    theta: Callable
    f: Callable
    rate: float | None = None

    @classmethod
    def constant(cls, alpha: float) -> "TwistProfile":
        a = float(alpha)
        return cls(theta=lambda z: a * z, f=lambda z: a, rate=a)

    @classmethod
    def linear_ramp(cls, alpha0: float) -> "TwistProfile":
        a0 = float(alpha0)
        return cls(theta=lambda z: a0 * z * z, f=lambda z: 2.0 * a0 * z)

    @classmethod
    def profiled(cls, theta: Callable,
                 f: Callable | None = None) -> "TwistProfile":
        if f is None:
            def f(z):
                h = _FD_STEP_F * np.maximum(1.0, np.abs(z))
                return (theta(z + h) - theta(z - h)) / (2.0 * h)
        return cls(theta=theta, f=f)

    @property
    def is_constant(self) -> bool:
        return self.rate is not None


@dataclass(frozen=True)
class Strain2:
    """Symmetric covariant strain tensor on (phi, z), dimensionless."""

    eps_pp: float
    eps_pz: float
    eps_zz: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.eps_pp, self.eps_pz],
                         [self.eps_pz, self.eps_zz]])


@dataclass(frozen=True)
class Metric2:
    """Symmetric 2x2 tensor on (phi, z) with an explicit variance flag.

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
        return _sym_det2(self.g_pp, self.g_pz, self.g_zz)

    @property
    def is_positive_definite(self) -> bool:
        return self.g_pp > 0.0 and self.det > 0.0

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


def _two_product(x: float, y: float) -> tuple[float, float]:
    # Dekker splitting: returns (p, e) with p + e == x*y exactly.
    p = x * y
    c = 134217729.0  # 2**27 + 1
    xh = c * x - (c * x - x)
    xl = x - xh
    yh = c * y - (c * y - y)
    yl = y - yh
    e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return p, e


def _sym_det2(a: float, b: float, d: float) -> float:
    # a*d - b*b with compensated products, so the heavy cancellation in the
    # twisted-metric determinant still returns R^2 to the last few ulp.
    p1, e1 = _two_product(a, d)
    p2, e2 = _two_product(b, b)
    return (p1 - p2) + (e1 - e2)


def undeformed_metric(geom: CylinderGeometry) -> Metric2:
    """Covariant metric diag(R^2, 1) of the straight cylinder."""
    return Metric2(geom.radius**2, 0.0, 1.0, COVARIANT)


def strain_from_linear_twist(geom: CylinderGeometry, alpha: float) -> Strain2:
    """Green-Lagrange strain of a uniform twist.

    The displacement has the single contravariant component u^phi = alpha*z;
    lowering with diag(R^2, 1) and keeping the quadratic term gives
    eps_pz = R^2 alpha / 2 and eps_zz = R^2 alpha^2 / 2. The Christoffel
    symbols of the cylinder vanish, so plain partial derivatives suffice.
    """
    r2 = geom.radius**2
    # groupings match twisted_metric bit for bit, so g + 2 eps reproduces it
    # exactly: eps_pz doubles back to r2*alpha, eps_zz to r2*alpha**2
    return Strain2(eps_pp=0.0,
                   eps_pz=0.5 * (r2 * alpha),
                   eps_zz=0.5 * (r2 * alpha**2))


def metric_from_strain(base: Metric2, strain: Strain2) -> Metric2:
    """Deformed covariant metric g' = g + 2 eps."""
    if base.variance != COVARIANT:
        raise ValueError("base metric must be covariant")
    out = Metric2(base.g_pp + 2.0 * strain.eps_pp,
                  base.g_pz + 2.0 * strain.eps_pz,
                  base.g_zz + 2.0 * strain.eps_zz,
                  COVARIANT)
    if not out.is_positive_definite:
        raise ValueError("deformed metric is not positive definite")
    return out


def twisted_metric(geom: CylinderGeometry, f_value: float) -> Metric2:
    """Covariant metric of the twisted cylinder at local twist value f."""
    r2 = geom.radius**2
    return Metric2(r2, r2 * f_value, 1.0 + r2 * f_value**2, COVARIANT)


def inverse_metric(g: Metric2) -> Metric2:
    """Contravariant inverse of a covariant 2x2 metric."""
    if g.variance != COVARIANT:
        raise ValueError("inverse_metric expects a covariant metric")
    det = g.det
    scale = abs(g.g_pp * g.g_zz) + g.g_pz**2
    if det <= _DET_RTOL * scale:
        raise SingularMetric(f"metric determinant {det:.3e} below tolerance")
    return Metric2(g.g_zz / det, -g.g_pz / det, g.g_pp / det, CONTRAVARIANT)


def surface_curvatures(geom: CylinderGeometry, f_value: float) -> CurvatureData:
    """Second fundamental form and curvatures of the twisted cylinder.

    h = [[-R, -R f], [-R f, -R f^2]] has det h = 0, so the Gaussian
    curvature K = det h / det g vanishes identically, and the mean curvature
    stays 1/(2R) no matter how strong the twist. Returned in closed form;
    ``metric_from_embedding_fd`` is the independent numerical check on the
    first fundamental form.
    """
    r = geom.radius
    h = Metric2(-r, -r * f_value, -r * f_value**2, COVARIANT)
    return CurvatureData(second_form=h, mean=1.0 / (2.0 * r), gaussian=0.0)


def da_costa_potential(curv: CurvatureData, phys: PhysicsParams) -> float:
    """Curvature-induced potential -hbar^2/(2m) (M^2 - K) of a confined particle.

    For any twisted cylinder this evaluates to -hbar^2 / (8 m R^2).
    """
    return -phys.hbar2_over_2m * (curv.mean**2 - curv.gaussian)


def metric_from_embedding_fd(geom: CylinderGeometry, twist: TwistProfile,
                             point: tuple[float, float],
                             step: float = 1e-5) -> Metric2:
    """First fundamental form from central differences of the embedding map.

    r(phi, z) = (R cos(phi + theta(z)), R sin(phi + theta(z)), z). Uses only
    the rotation angle, never f(z), so it serves as an oracle for
    ``twisted_metric``. Second-order accurate: with step 1e-5 the components
    are good to about 1e-9.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    r = geom.radius
    phi, z = point

    def emb(p: float, zz: float) -> np.ndarray:
        theta = twist.theta(zz)
        return np.array([r * math.cos(p + theta), r * math.sin(p + theta), zz])

    d_phi = (emb(phi + step, z) - emb(phi - step, z)) / (2.0 * step)
    d_z = (emb(phi, z + step) - emb(phi, z - step)) / (2.0 * step)
    return Metric2(float(d_phi @ d_phi), float(d_phi @ d_z), float(d_z @ d_z),
                   COVARIANT)
