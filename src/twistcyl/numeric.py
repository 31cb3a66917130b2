"""Numerical kernels and independent oracles.

Contains an eigen-oracle for the longitudinal mode equation (the cross check
on the closed-form spectrum) and a direct ODE-integration transmission oracle
(the cross check on the closed-form scattering solution). Both run on numpy
alone: the eigen-oracle diagonalises a Chebyshev collocation of the literal
twisted operator with ``np.linalg``, and the ODE oracle propagates the
constant-coefficient mode equation with powers of one classical Runge-Kutta
step. Neither uses a closed form: both take the equation from the strain.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigensolverFailure, IntegratorFailure
from .geometry import (CylinderGeometry, PhysicsParams, TwistProfile,
                       da_costa_potential, inverse_metric, metric_from_strain,
                       strain_from_twist, surface_curvatures,
                       undeformed_metric)
from .scattering import outside_wavevector

_RK4_LOG2_STEP = 10  # ODE oracle: h max(1, max|A_ij|) <= 2^-_RK4_LOG2_STEP
_IMAG_RTOL = 1e-11  # eigen-oracle: largest imaginary part accepted, relative
_PHASE_PER_POINT = 0.75  # eigen-oracle: twist phase budget, rad per point


def _mode_operator(l: int, geom: CylinderGeometry, twist: TwistProfile,
                   phys: PhysicsParams, points: int):
    """Chebyshev collocation matrix of the literal longitudinal mode operator.

        -t (1/sqrt g) d_i (sqrt g g^ij d_j) + V_dC,   d_phi -> i l,

    with t = hbar^2/(2m), derived as the paper does: the strain of the twist
    at the local rate f = theta' gives the metric g + 2 eps at each node, and
    the curvatures da Costa's V_dC = -t (M^2 - K); f is never differentiated.
    On the Gauss-Lobatto points x_j = cos(j pi / N), j = 0..N, mapped to
    z = L (1 - x)/2, D is the differentiation matrix of Trefethen's cheb.m
    (Spectral Methods in MATLAB, SIAM 2000), with its diagonal set by the
    negative-sum trick, and (1/sqrt g) D sqrt g the divergence. Dropping the
    first and last rows and columns imposes Z(0) = Z(L) = 0. For a
    z-dependent twist the matrix is not Hermitian, but its spectrum is still
    real because the first-derivative term can be removed by a phase change
    of the unknowns, l theta(z), which the eigenvectors carry and the nodes
    must resolve (``fd_bound_spectrum`` lists the refusals). Returns the
    matrix and the N - 1 interior nodes.
    """
    j = np.arange(points + 1)
    x = np.cos(np.pi * j / points)
    c = np.where((j == 0) | (j == points), 2.0, 1.0) * (-1.0)**j
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(points + 1))
    d -= np.diag(d.sum(axis=1))
    d *= -2.0 / geom.length  # d/dz = -(2/L) d/dx
    z = 0.5 * geom.length * (1.0 - x)
    t = phys.hbar2_over_2m
    f = np.broadcast_to(twist.f(z), z.shape)
    strain = strain_from_twist(geom, f)
    if not np.all(np.isfinite(strain.g_zz)):
        raise EigensolverFailure(f"strain not finite for l = {l}, {geom}")
    g = metric_from_strain(undeformed_metric(geom), strain)
    rounding = np.spacing(1.0) * np.max((g.g_pp * g.g_zz + g.g_pz**2) / g.det)
    if rounding > _IMAG_RTOL:
        raise EigensolverFailure(f"metric rounding {rounding:.3e} of {geom}")
    inv = inverse_metric(g)
    div = d * np.sqrt(g.det) / np.sqrt(g.det)[:, None]
    v_dc = da_costa_potential(surface_curvatures(geom, f), phys)
    op = (np.diag(t * l**2 * inv.g_pp + v_dc) - t * (
        div @ (inv.g_zz[:, None] * d)
        + 1j * l * (inv.g_pz[:, None] * d + div * inv.g_pz)))[1:-1, 1:-1]
    if not np.all(np.isfinite(op)):
        raise EigensolverFailure(f"mode operator not finite for l = {l}, {geom}")
    theta = twist.theta(z[1:-1])
    phase = abs(l) * float(np.max(theta) - np.min(theta))
    if phase > _PHASE_PER_POINT * points:
        raise EigensolverFailure(
            f"twist phase {phase:.3g} rad exceeds the budget of "
            f"{_PHASE_PER_POINT * points:.3g} rad at {points} points")
    return op, z[1:-1]


def _lowest(values: np.ndarray, count: int, geom: CylinderGeometry,
            phys: PhysicsParams) -> np.ndarray:
    """Indices of the ``count`` eigenvalues of least real part, in ascending
    order of real part, checked real.

    The imaginary part may be at most 1e-11 of the eigenvalue's modulus, or
    of the box scale t/L^2 when the eigenvalue is smaller.
    """
    if not np.all(np.isfinite(values)):
        raise EigensolverFailure("collocation spectrum not finite")
    order = np.argsort(values.real)[:count]
    low = values[order]
    scale = np.maximum(np.abs(low), phys.hbar2_over_2m / geom.length**2)
    worst = float(np.max(np.abs(low.imag) / scale))
    if worst > _IMAG_RTOL:
        raise EigensolverFailure(
            f"collocation spectrum not real: imaginary part {worst:.3e}")
    return order


def _check_points(points: int, count: int):
    # only about 2/pi of a collocation spectrum is accurate (Weideman &
    # Trefethen, SIAM J. Numer. Anal. 25, 1279 (1988)); a quarter leaves room
    if count < 1:
        raise ValueError("count must be at least 1")
    if points < 4 * count:
        raise ValueError(
            f"{points} collocation points are too few for {count} modes; "
            f"need at least {4 * count}")


def fd_eigenpairs(l: int, geom: CylinderGeometry, twist: TwistProfile,
                  phys: PhysicsParams, count: int, points: int = 48):
    """Lowest ``count`` eigenpairs of the collocated mode operator.

    The name is historical: the oracle was a finite-difference solver and is
    now Chebyshev collocation of order ``points``, see ``_mode_operator``.
    Returns (values, vectors, nodes): complex values, so callers can inspect
    the rounding-level imaginary parts, unit-norm vectors on the interior
    nodes, and those nodes. No closed form enters: the pairs come from
    ``np.linalg.eig`` of the literal operator.
    """
    _check_points(points, count)
    op, z = _mode_operator(l, geom, twist, phys, points)
    values, vectors = np.linalg.eig(op)
    order = _lowest(values, count, geom, phys)
    return values[order], vectors[:, order], z


def fd_bound_spectrum(l: int, geom: CylinderGeometry, twist: TwistProfile,
                      phys: PhysicsParams, count: int,
                      points: int = 48) -> np.ndarray:
    """Lowest ``count`` bound-state energies from the eigen-oracle, ascending.

    The name is historical: the values are the eigenvalues of least real
    part of the Chebyshev collocation of order ``points``
    (``np.linalg.eigvals``), with no extrapolation. A non-finite strain,
    operator or spectrum raises EigensolverFailure, and so do imaginary
    parts above 1e-11 relative, which a z-dependent twist that the nodes do
    not resolve leaves: raise ``points`` (theta = sin 2z at l = 2, L = 5 is
    refused at 48 and right to 4e-14 at 96). A constant twist a keeps the
    spectrum real at any order, so the gate cannot see it; instead a twist
    phase |l| (max theta - min theta) above 0.75 rad per point raises too.
    At 48 points that budget is 36 rad, where the lowest four modes at
    l = 3, R = 1, L = 5 hold to 4e-14; past it they drift to 3e-11 at
    45 rad, 3e-7 at 60 and 18% at 90. At 96 points 72 rad holds to 2e-14.
    Last, a metric whose rounding eps (g_pp g_zz + g_pz^2) / det g, which the
    spectrum inherits, exceeds 1e-11 (R f above about 150) raises too.
    """
    _check_points(points, count)
    op, _ = _mode_operator(l, geom, twist, phys, points)
    values = np.linalg.eigvals(op)
    return values[_lowest(values, count, geom, phys)].real


# Four component arrays instead of numpy's stacked ``@`` on (n, 2, 2)
# complex arrays: with ``@`` the embedded-transparency check of ``validate``
# took 7.5 ms instead of 2.5 ms (2-CPU Xeon, median of 30 in-process runs),
# and its deviation and free-twist-invariance's moved from 1.11e-14 and
# 1.67e-15 to 3.42e-14 and 2.44e-15.
def _product(a, b):
    """Product of two 2x2 matrices, each held as its four component arrays
    (m00, m01, m10, m11)."""
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def ode_transmission_oracle(energy, scenario):
    """Transmission and reflection by direct integration of the mode ODE.

    Starts from a pure outgoing wave at z = L, integrates the literal
    -t (g^zz Z'' + 2 i l g^pz Z' - l^2 g^pp Z) + V_dC Z = E Z, g and V_dC as
    in ``_mode_operator``, backward through the twisted region, and matches
    plane waves at both ends by continuity of Z and of the current
    g^zz Z' + i l g^zp Z. Beyond the scenario it shares only
    ``outside_wavevector``, which also refuses a closed channel, with the
    closed-form solve; ``_solve_batch`` forms its own k.

    It integrates the literal equation of a constant twist only: it reads
    ``scenario.twist.rate`` and raises ValueError for any other profile.
    ``energy`` is a float, which returns two floats, or an array, which
    returns two arrays.

    The equation is y' = A y for y = (Z, Z') with a constant matrix A, so
    one classical RK4 step of size h is the matrix P = sum_{k<=4} (hA)^k/k!
    and 2^s steps are P^(2^s), formed by repeated squaring (Ko & Inkson,
    PRB 38, 9945 (1988), propagate the same equation by transfer matrices).
    One s serves the whole energy array, so that h max(1, max|A_ij|) <= 2^-10
    at every energy. Raises IntegratorFailure when the propagated solution
    is not finite, as when deep tunnelling through a long section overflows.
    """
    alpha = scenario.twist.rate
    if alpha is None:
        raise ValueError("the ODE oracle integrates a constant twist only")
    energies = np.asarray(energy, dtype=float)
    k = outside_wavevector(energies, scenario)  # refuses a closed channel
    phys = scenario.phys
    geom = scenario.geom
    l = scenario.mode.l
    t = phys.hbar2_over_2m

    inv = inverse_metric(metric_from_strain(undeformed_metric(geom),
                                            strain_from_twist(geom, alpha)))
    v_dc = da_costa_potential(surface_curvatures(geom, alpha), phys)
    c1 = -2j * l * inv.g_pz / inv.g_zz
    c0 = (t * l**2 * inv.g_pp + v_dc - energies) / (t * inv.g_zz)

    length = geom.length
    scale = max(1.0, float(np.max(np.abs(c0))), abs(c1))
    steps_log2 = max(0, math.ceil(math.log2(length * scale) + _RK4_LOG2_STEP))
    h = -length / 2**steps_log2
    zero = np.zeros_like(c0)
    ha = (zero, zero + h, h * c0, zero + h * c1)
    # P - 1 = hA (1 + hA (1 + hA (1 + hA/4)/3)/2) is carried instead of P,
    # which would round away the low bits of hA: (1 + E)^2 = 1 + (2E + E^2)
    e = ha
    for div in (4.0, 3.0, 2.0):
        m = tuple(x / div for x in e)
        e = _product(ha, (m[0] + 1.0, m[1], m[2], m[3] + 1.0))
    out = np.exp(1j * k * length)
    y_end = (out, (1j * k - 1j * l * inv.g_pz) * out / inv.g_zz)
    with np.errstate(all="ignore"):
        for _ in range(steps_log2):
            e = tuple(2.0 * x + y for x, y in zip(e, _product(e, e)))
        z0 = y_end[0] + e[0] * y_end[0] + e[1] * y_end[1]
        zp0 = y_end[1] + e[2] * y_end[0] + e[3] * y_end[1]
        d = (inv.g_zz * zp0 + 1j * l * inv.g_pz * z0) / (1j * k)
        a_in = 0.5 * (z0 + d)    # incident amplitude when outgoing is normalized
        b_out = 0.5 * (z0 - d)   # reflected amplitude
        trans = 1.0 / np.abs(a_in)**2
        refl = np.abs(b_out / a_in)**2
    bad = ~(np.isfinite(z0) & np.isfinite(zp0) & np.isfinite(refl))
    if np.any(bad):
        raise IntegratorFailure(
            f"propagated solution not finite at energy "
            f"{energies[bad].flat[0]} over length {length}")
    if energies.ndim == 0:
        return float(trans), float(refl)
    return trans, refl
