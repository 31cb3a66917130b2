"""Numerical kernels and independent oracles.

Contains an eigen-oracle for the longitudinal mode equation (the cross check
on the closed-form spectrum) and a direct ODE-integration transmission oracle
(the cross check on the closed-form scattering solution). Both run on numpy
alone and take the literal twisted equation from ``_mode_terms``: the
eigen-oracle diagonalises its Chebyshev collocation with ``np.linalg``, and
the ODE oracle multiplies classical Runge-Kutta step matrices for any twist
profile. Neither uses a closed form: both take the equation from the strain.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigensolverFailure, IntegratorFailure
from .geometry import (CylinderGeometry, PhysicsParams, TwistProfile, _real,
                       da_costa_potential, inverse_metric, metric_from_strain,
                       square, strain_from_twist, surface_curvatures,
                       undeformed_metric)
from .scattering import outside_wavevector

_RK4_LOG2_STEP = 10  # ODE oracle: h times A's spectral radius <= 2^-10
_BLOCK_LOG2 = 10  # ODE oracle: at most 2^10 step matrices held at once
# ODE oracle: at most 2^22 steps for a profiled twist, 4.6 s at one energy
# on a 2-CPU Xeon; a uniform rate squares once per level and needs no cap
_MAX_STEPS_LOG2 = 22
_IMAG_RTOL = 1e-11  # largest imaginary part and metric rounding, relative
_PHASE_PER_POINT = 0.75  # eigen-oracle: twist phase budget, rad per point


def _mode_terms(geom: CylinderGeometry, f, phys: PhysicsParams, failure):
    """Metric g + 2 eps at the twist rates f, its inverse and V_dC for both
    oracles. Raises ``failure`` for a strain that is not finite or a metric
    rounding eps max(det_scale / det g) above 1e-11 (R f above about 150;
    from about 1e8 det g rounds to 0), which every coefficient inherits."""
    strain = strain_from_twist(geom, f)
    if not np.all(np.isfinite(strain.g_zz)):
        raise failure(f"strain not finite for {geom}")
    try:
        g = metric_from_strain(undeformed_metric(geom), strain)
    except ValueError as exc:
        raise failure(f"{exc} for {geom}") from None
    rounding = np.spacing(1.0) * np.max(g.det_scale / g.det)
    if rounding > _IMAG_RTOL:
        raise failure(f"metric rounding {rounding:.3e} of {geom}")
    return g, inverse_metric(g), da_costa_potential(
        surface_curvatures(geom, f), phys)


@np.errstate(all="ignore")  # what is not finite raises EigensolverFailure
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
    t, l = phys.hbar2_over_2m, _real(l)
    g, inv, v_dc = _mode_terms(geom, np.broadcast_to(twist.f(z), z.shape),
                               phys, EigensolverFailure)
    div = d * np.sqrt(g.det) / np.sqrt(g.det)[:, None]
    op = (np.diag(t * square(l) * inv.g_pp + v_dc) - t * (
        div @ (inv.g_zz[:, None] * d)
        + 1j * l * (inv.g_pz[:, None] * d + div * inv.g_pz)))[1:-1, 1:-1]
    if not np.all(np.isfinite(op)):
        raise EigensolverFailure(
            f"mode operator not finite for l = {l:g}, {geom}")
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
    scale = np.maximum(np.abs(low), phys.hbar2_over_2m / square(geom.length))
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
    Last, a metric whose rounding eps det_scale / det g, which the spectrum
    inherits, exceeds 1e-11 (R f above about 150) raises too.
    """
    _check_points(points, count)
    op, _ = _mode_operator(l, geom, twist, phys, points)
    values = np.linalg.eigvals(op)
    return values[_lowest(values, count, geom, phys)].real


def _compose(a, b):
    """(1 + b)(1 + a) - 1, step a first, for 2x2 steps held as P - 1 with the
    matrix indices on the two leading axes, which keeps the low bits of hA
    that forming 1 + hA would round away."""
    # two broadcast terms: stacked ``@`` took validate's ODE rows 2.4-4x longer
    return a + b + (b[:, :1] * a[:1] + b[:, 1:] * a[1:])


def _rk4_step(start, mid, end):
    """P - 1 = (M1 + 2 M2 + 2 M3 + M4)/6 of a classical RK4 step of y' = A y
    from hA at its start, middle and end: M1 = hA(start),
    M2 = hA(mid)(1 + M1/2), M3 = hA(mid)(1 + M2/2), M4 = hA(end)(1 + M3)."""
    m = [start]
    for ha, frac in ((mid, 0.5), (mid, 0.5), (end, 1.0)):
        m.append(ha + frac * (ha[:, :1] * m[-1][:1] + ha[:, 1:] * m[-1][1:]))
    return (m[0] + 2.0 * (m[1] + m[2]) + m[3]) / 6.0


@np.errstate(all="ignore")  # what is not finite raises IntegratorFailure
def ode_transmission_oracle(energy, scenario):
    """Transmission and reflection by direct integration of the mode ODE.

    Integrates the literal -t (g^zz Z'' + 2 i l g^pz Z' - l^2 g^pp Z) + V_dC Z
    = E Z of any twist, coefficients from ``_mode_terms``, backward from a
    pure outgoing wave at z = L, and matches plane waves at both ends. It
    shares only ``outside_wavevector``, which refuses a closed channel, with
    the closed form. A float ``energy`` gives two floats, an array two arrays.

    The unknowns are Z and w = g^zz Z' + i l g^zp Z, the current's
    derivative term, which is the plane wave's Z' at the interfaces:
    Z' = (w - i l g^zp Z) / g^zz and w' = -i l (g^pz / g^zz) w + c Z with
    c = [t l^2 (g^pp - (g^zp)^2 / g^zz) + V_dC - E] / t; no f' enters. The
    2^s RK4 step matrices are multiplied in pairs, in blocks of at most
    2^10, and a rate that is one number at every height has one step matrix,
    squared s times (Ko & Inkson, PRB 38, 9945 (1988), propagate the same
    equation by transfer matrices). s is the least with
    h (1 + max|l g^zp / g^zz| + sqrt(max|c|)) <= 2^-10 over 65 probe heights
    and every energy. IntegratorFailure: as in ``_mode_terms``, for a block
    whose own coefficients break that rule by more than 2 (a rate peak
    between probe heights), for a profiled twist that needs more than 2^22
    steps (a long section), and for a step count or a propagated solution
    that is not finite (deep tunnelling through a long section overflows).
    """
    energies = np.asarray(energy, dtype=float)
    ik = 1j * outside_wavevector(energies, scenario)  # refuses closed ones
    geom, twist, phys = scenario.geom, scenario.twist, scenario.phys
    l, t, length = _real(scenario.mode.l), phys.hbar2_over_2m, geom.length

    def coefficients(f):
        # A = [[b, u], [c, b]] by height, then energy, and the least s it takes
        _, inv, v_dc = _mode_terms(geom, f, phys, IntegratorFailure)
        q = t * square(l) * (inv.g_pp - inv.g_pz**2 / inv.g_zz) + v_dc
        tail = np.shape(q) + (1,) * energies.ndim
        b = np.reshape(-1j * l * inv.g_pz / inv.g_zz, tail)
        c = np.subtract.outer(q, energies) / t
        need = length * 2.0**_RK4_LOG2_STEP * (
            1.0 + np.max(np.abs(b)) + np.sqrt(np.max(np.abs(c))))
        if not math.isfinite(need):
            raise IntegratorFailure(f"step count not finite over {geom}")
        b, u, c = np.broadcast_arrays(b, np.reshape(1.0 / inv.g_zz, tail), c)
        return np.array([[b, u], [c, b]]), max(0, math.ceil(math.log2(need)))

    f = np.asarray(twist.f(np.linspace(0.0, length, 65)))  # probe heights
    uniform = np.ndim(f) == 0
    coef, steps_log2 = coefficients(f if uniform else np.broadcast_to(f, 65))
    if not uniform and steps_log2 > _MAX_STEPS_LOG2:
        raise IntegratorFailure(f"2^{steps_log2} steps over {geom} exceed "
                                f"the cap of 2^{_MAX_STEPS_LOG2}")
    h = -length * 2.0**-steps_log2  # 2**1024 would not convert to a float
    levels = steps_log2 if uniform else min(steps_log2, _BLOCK_LOG2)
    total = None
    for block in range(2**(steps_log2 - levels)):
        if not uniform:  # heights z, z + h/2, z + h of each step
            z = length + h * (2**levels * block
                              + 0.5 * np.arange(2**(levels + 1) + 1))
            coef, own = coefficients(np.broadcast_to(twist.f(z), z.shape))
            if own > steps_log2 + 1:  # the block needs over twice the steps
                raise IntegratorFailure(f"rate between probe heights not "
                                        f"resolved over {geom}")
        ha = h * coef
        e = (_rk4_step(ha, ha, ha) if uniform else _rk4_step(
            *(ha[:, :, j:j + 2**(levels + 1):2] for j in (0, 1, 2))))
        for _ in range(levels):
            e = (_compose(e, e) if uniform
                 else _compose(e[:, :, 0::2], e[:, :, 1::2]))
        total = e if total is None else _compose(total, e)
    e00, e01, e10, e11 = np.reshape(total, (4,) + energies.shape)
    out = np.exp(ik * length)
    z0 = out * (1.0 + e00 + ik * e01)
    d = out * (1.0 + e11 + e10 / ik)  # w(0) / ik
    a_in = z0 + d  # twice the incident amplitude; outgoing is normalized
    trans = 4.0 / np.abs(a_in)**2
    refl = np.abs((z0 - d) / a_in)**2
    bad = ~(np.isfinite(z0) & np.isfinite(d) & np.isfinite(refl))
    if np.any(bad):
        raise IntegratorFailure(
            f"propagated solution not finite at energy "
            f"{energies[bad].flat[0]} over length {length}")
    if energies.ndim == 0:
        return float(trans), float(refl)
    return trans, refl
