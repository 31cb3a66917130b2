"""Numerical kernels and independent oracles.

Contains an eigen-oracle for the longitudinal mode equation (the cross check
on the closed-form spectrum) and a direct ODE-integration transmission oracle
(the cross check on the closed-form scattering solution). Both run on numpy
alone: the eigen-oracle diagonalises a Chebyshev collocation of the literal
twisted operator with ``np.linalg``, and the ODE oracle propagates the
constant-coefficient mode equation with powers of one classical Runge-Kutta
step. Neither uses a closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigensolverFailure, IntegratorFailure, NoPropagatingChannel
from .geometry import (CylinderGeometry, PhysicsParams, TwistProfile,
                       da_costa_potential, surface_curvatures)

_RK4_LOG2_STEP = 10  # ODE oracle: h max(1, max|A_ij|) <= 2^-_RK4_LOG2_STEP
_IMAG_RTOL = 1e-11  # eigen-oracle: largest imaginary part accepted, relative
_PHASE_PER_POINT = 0.75  # eigen-oracle: twist phase budget, rad per point


def _mode_operator(l: int, geom: CylinderGeometry, twist: TwistProfile,
                   phys: PhysicsParams, points: int):
    """Chebyshev collocation matrix of the literal longitudinal mode operator.

        -t Z'' + i l t [(f Z)' + f Z'] + [V_g + t (f^2 + 1/R^2) l^2] Z

    with t = hbar^2/(2m) and f = theta'; the bracket is 2 f Z' + f' Z with
    no derivative of f. On the Gauss-Lobatto points x_j = cos(j pi / N),
    j = 0..N, mapped to z = L (1 - x)/2, D is the differentiation matrix of
    Trefethen's cheb.m (Spectral Methods in MATLAB, SIAM 2000), with its
    diagonal set by the negative-sum trick. Dropping the first and last rows
    and columns imposes Z(0) = Z(L) = 0. For a z-dependent twist the matrix
    is not Hermitian, but its spectrum is still real because the first-
    derivative term can be removed by a phase change of the unknowns.
    The eigenvectors carry that phase, l theta(z), which the nodes must
    resolve: a phase |l| (max theta - min theta) across the interior nodes
    above 0.75 N rad raises EigensolverFailure (see ``fd_bound_spectrum``).
    Returns the matrix and the N - 1 interior nodes.
    """
    j = np.arange(points + 1)
    x = np.cos(np.pi * j / points)
    c = np.where((j == 0) | (j == points), 2.0, 1.0) * (-1.0)**j
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(points + 1))
    d -= np.diag(d.sum(axis=1))
    d *= -2.0 / geom.length  # d/dz = -(2/L) d/dx
    d1 = d[1:-1, 1:-1]
    d2 = (d @ d)[1:-1, 1:-1]
    z = 0.5 * geom.length * (1.0 - x[1:-1])
    t = phys.hbar2_over_2m
    f = np.broadcast_to(twist.f(z), z.shape)
    v_g = da_costa_potential(surface_curvatures(geom, 0.0), phys)
    potential = v_g + t * (f**2 + 1.0 / geom.radius**2) * l**2
    op = (-t * d2 + 1j * l * t * (d1 * f[None, :] + f[:, None] * d1)
          + np.diag(potential))
    if not np.all(np.isfinite(op)):
        raise EigensolverFailure(
            f"mode operator not finite for l = {l}, {geom}")
    theta = twist.theta(z)
    phase = abs(l) * float(np.max(theta) - np.min(theta))
    if phase > _PHASE_PER_POINT * points:
        raise EigensolverFailure(
            f"twist phase {phase:.3g} rad exceeds the budget of "
            f"{_PHASE_PER_POINT * points:.3g} rad at {points} points")
    return op, z


def _lowest(values: np.ndarray, count: int, geom: CylinderGeometry,
            phys: PhysicsParams) -> np.ndarray:
    """Indices of the ``count`` eigenvalues of least real part, checked real.

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
    (``np.linalg.eigvals``), with no extrapolation. A non-finite operator
    or spectrum raises EigensolverFailure, and so do imaginary parts above
    1e-11 relative, which a z-dependent twist that the nodes do not resolve
    leaves: raise ``points`` (theta = sin 2z at l = 2, L = 5 is refused at
    48 and right to 4e-14 at 96). A constant twist a keeps the spectrum
    real at any order, so the gate cannot see it; instead a twist phase
    |l| (max theta - min theta) above 0.75 rad per point raises too. At
    48 points that budget is 36 rad, where the lowest four modes at l = 3,
    R = 1, L = 5 hold to 4e-14; past it they drift to 3e-11 at 45 rad,
    3e-7 at 60 and 18% at 90. At 96 points 72 rad holds to 2e-14.
    """
    _check_points(points, count)
    op, _ = _mode_operator(l, geom, twist, phys, points)
    values = np.linalg.eigvals(op)
    return np.sort(values[_lowest(values, count, geom, phys)].real)


def ode_transmission_oracle(energy: float, scenario) -> tuple[float, float]:
    """Transmission and reflection by direct integration of the mode ODE.

    Starts from a pure outgoing wave at z = L, integrates the full complex
    second-order equation (first-derivative twist term included, no phase
    transformation) backward through the twisted region, and matches plane
    waves at z = 0 using the current-continuity derivative conditions. This
    route shares nothing with the closed-form root/matching solution beyond
    the scenario definition.

    The equation is y' = A y for y = (Z, Z') with a constant matrix A, so
    one classical RK4 step of size h is the matrix P = sum_{k<=4} (hA)^k/k!
    and 2^s steps are P^(2^s), formed by repeated squaring (Ko & Inkson,
    PRB 38, 9945 (1988), propagate the same equation by transfer matrices).
    The step satisfies h max(1, max|A_ij|) <= 2^-10.
    Raises IntegratorFailure when the propagated solution is not finite,
    as when deep tunnelling through a long section overflows.
    """
    thr = scenario.outside_threshold
    if energy <= thr:
        raise NoPropagatingChannel(
            f"energy {energy} at or below the outside threshold {thr}")
    phys = scenario.phys
    geom = scenario.geom
    l = scenario.mode.l
    alpha = scenario.alpha
    t = phys.hbar2_over_2m

    k = np.sqrt((energy - thr) / t)
    v_g = da_costa_potential(surface_curvatures(geom, 0.0), phys)
    v_eff = v_g + t * (alpha**2 + 1.0 / geom.radius**2) * l**2
    c1 = 2j * l * alpha
    c0 = (v_eff - energy) / t

    length = geom.length
    scale = max(1.0, abs(c0), abs(c1))
    steps_log2 = max(0, math.ceil(math.log2(length * scale) + _RK4_LOG2_STEP))
    ha = (-length / 2**steps_log2) * np.array([[0.0, 1.0], [c0, c1]])
    eye = np.eye(2)
    # P - 1 is carried instead of P, which would round away the low bits of
    # hA: (1 + E)^2 = 1 + (2E + E^2)
    e = ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)
    y_end = np.array([np.exp(1j * k * length),
                      (1j * k + 1j * l * alpha) * np.exp(1j * k * length)])
    with np.errstate(all="ignore"):
        for _ in range(steps_log2):
            e = 2.0 * e + e @ e
        z0, zp0 = y_end + e @ y_end
        d = (zp0 - 1j * l * alpha * z0) / (1j * k)
        a_in = 0.5 * (z0 + d)    # incident amplitude when outgoing is normalized
        b_out = 0.5 * (z0 - d)   # reflected amplitude
        trans = 1.0 / abs(a_in)**2
        refl = abs(b_out / a_in)**2
    if not (np.isfinite(z0) and np.isfinite(zp0) and np.isfinite(refl)):
        raise IntegratorFailure(
            f"propagated solution not finite at energy {energy} "
            f"over length {length}")
    return float(trans), float(refl)
