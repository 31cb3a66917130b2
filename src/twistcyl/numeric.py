"""Numerical kernels and independent oracles.

Contains a finite-difference eigensolver for the longitudinal mode equation
(the cross check on the closed-form spectrum), a direct ODE-integration
transmission oracle (the cross check on the closed-form scattering solution),
and an adaptive Simpson quadrature used for twist-phase integrals. All three
run on numpy alone: the eigensolver's shifted solves use a pivoted
tridiagonal elimination, and the oracle propagates the constant-coefficient
mode equation with powers of one classical Runge-Kutta step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (EigensolverFailure, IntegratorFailure,
                     NoPropagatingChannel, QuadratureFailure)
from .geometry import (CylinderGeometry, PhysicsParams, TwistProfile,
                       da_costa_potential, surface_curvatures)

_EIG_MAX_ITER = 80
_RK4_LOG2_STEP = 10  # ODE oracle: h max(1, max|A_ij|) <= 2^-_RK4_LOG2_STEP


@dataclass(frozen=True)
class FDGrid:
    """Interior-node grid for the Dirichlet problem Z(0) = Z(L) = 0.

    With N interior points the spacing is h = L/(N+1) and the unknowns live
    at z_i = i h, i = 1..N; the endpoints are eliminated by the boundary
    condition.
    """

    points: int

    def __post_init__(self):
        if self.points < 16:
            raise ValueError("need at least 16 interior points")

    def spacing(self, length: float) -> float:
        return length / (self.points + 1)

    def nodes(self, length: float) -> np.ndarray:
        h = self.spacing(length)
        return h * np.arange(1, self.points + 1)


def _fd_bands(l: int, geom: CylinderGeometry, twist: TwistProfile,
              phys: PhysicsParams, n_points: int):
    """Tridiagonal bands of the discretized longitudinal mode operator.

    Central differences on
        -t Z'' + 2 i l t f(z) Z' + [V_g + t (f^2 + 1/R^2) l^2 + i l t f'(z)] Z
    with t = hbar^2/(2m). For constant twist the matrix is Hermitian; for a
    z-dependent profile it is not, but its spectrum is still real up to
    discretization error because the first-derivative term can be removed by
    a phase change of the unknowns.
    """
    length = geom.length
    h = length / (n_points + 1)
    z = h * np.arange(1, n_points + 1)
    t = phys.hbar2_over_2m
    f = np.array([twist.f(zi) for zi in z])
    fp = np.array([twist.f_prime(zi) for zi in z])
    v_g = da_costa_potential(surface_curvatures(geom, 0.0), phys)

    diag = (2.0 * t / h**2
            + v_g + t * (f**2 + 1.0 / geom.radius**2) * l**2
            + 1j * l * t * fp)
    # i l (hbar^2/m) f Z' -> +/- i l t f_i / h on the two neighbours of row i
    gamma = l * t * f / h
    upper = -t / h**2 + 1j * gamma[:-1]   # row i, column i+1
    lower = -t / h**2 - 1j * gamma[1:]    # row i+1, column i
    return lower.astype(complex), diag.astype(complex), upper.astype(complex), z


def _band_matvec(lower, diag, upper, v):
    out = diag * v
    out[:-1] += upper * v[1:]
    out[1:] += lower * v[:-1]
    return out


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Solve a tridiagonal system by Gaussian elimination with partial pivoting.

    ``lower[i]`` is A[i+1, i] and ``upper[i]`` is A[i, i+1]. As in LAPACK
    gtsv, a row swap fills in a second superdiagonal ``du2``. The recurrence
    runs on Python complex scalars, which are faster than element access
    into numpy arrays. A zero pivot raises ZeroDivisionError.
    """
    dl = lower.tolist()
    d = diag.tolist()
    du = upper.tolist() + [0j]
    b = rhs.tolist()
    n = len(d)
    du2 = [0j] * (n + 1)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
        else:  # swap rows i and i+1, then eliminate
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            du2[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    x = [0j] * (n + 2)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return np.array(x[:n])


def _inverse_iteration(lower, diag, upper, shift, seed):
    """Eigenpair nearest to ``shift`` by shifted inverse iteration.

    The shifts come from excellent analytic guesses, so a handful of solves
    converges to rounding level. Right and left vectors are iterated
    together and the eigenvalue is the two-sided Rayleigh quotient, which
    stays second-order accurate in the residual even when a z-dependent
    twist makes the matrix non-Hermitian. Convergence is judged on the
    residual, whose floor is set by rounding at the matrix scale.
    """
    shifted = diag - shift
    # bands of (A - shift I)^H for the left vector
    lower_h, diag_h, upper_h = np.conj(upper), np.conj(shifted), np.conj(lower)

    norm_a = (np.max(np.abs(diag)) + np.max(np.abs(upper))
              + np.max(np.abs(lower)))
    x = seed / np.linalg.norm(seed)
    y = x.copy()
    best = None
    best_res = np.inf
    for _ in range(_EIG_MAX_ITER):
        x = _solve_tridiagonal(lower, shifted, upper, x)
        x = x / np.linalg.norm(x)
        y = _solve_tridiagonal(lower_h, diag_h, upper_h, y)
        y = y / np.linalg.norm(y)
        ax = _band_matvec(lower, diag, upper, x)
        lam = np.vdot(y, ax) / np.vdot(y, x)
        res = np.linalg.norm(ax - lam * x)
        if res < best_res:
            best, best_res = (lam, x), res
        if res <= 1e-13 * norm_a:
            break
        if res > 0.5 * best_res:
            break  # residual at its rounding floor, stop polishing
    lam, x = best
    if best_res > 1e-10 * norm_a:
        raise EigensolverFailure(
            f"residual {best_res:.3e} too large near shift {shift}")
    return lam, x


def fd_eigenpairs(l: int, geom: CylinderGeometry, twist: TwistProfile,
                  phys: PhysicsParams, n_points: int, count: int):
    """Lowest ``count`` eigenpairs of the discretized mode operator.

    Returns (values, vectors, nodes) on a single grid; values are complex so
    callers can inspect the (discretization-level) imaginary parts. Shifts
    and seed vectors come from the closed-form box spectrum; the converged
    pair is a property of the matrix alone.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if count * np.pi / (n_points + 1) >= 0.3:
        raise ValueError("grid too coarse for the requested mode count")
    lower, diag, upper, z = _fd_bands(l, geom, twist, phys, n_points)
    t = phys.hbar2_over_2m
    v_star = t * (l**2 - 0.25) / geom.radius**2

    # accumulated twist phase at the nodes, for seed vectors only
    z_full = np.concatenate(([0.0], z))
    f_full = np.array([twist.f(zi) for zi in z_full])
    theta = np.cumsum(0.5 * (f_full[1:] + f_full[:-1]) * np.diff(z_full))

    values = np.empty(count, dtype=complex)
    vectors = np.empty((z.size, count), dtype=complex)
    for n in range(1, count + 1):
        shift = t * (n * np.pi / geom.length)**2 + v_star
        seed = np.sin(n * np.pi * z / geom.length) * np.exp(1j * l * theta)
        lam, vec = _inverse_iteration(lower, diag, upper, shift, seed)
        values[n - 1] = lam
        vectors[:, n - 1] = vec
    order = np.argsort(values.real)
    return values[order], vectors[:, order], z


def fd_bound_spectrum(l: int, geom: CylinderGeometry, twist: TwistProfile,
                      phys: PhysicsParams, grid: FDGrid, count: int) -> np.ndarray:
    """Richardson-extrapolated bound-state energies from the FD oracle.

    Eigenvalues are computed on ``grid.points`` and twice that many interior
    nodes and combined with the exact-h^2 two-grid formula. The result must
    be real to 1e-9; a larger imaginary remainder means the discretization
    went wrong and raises EigensolverFailure.
    """
    n1 = grid.points
    n2 = 2 * grid.points
    v1, _, _ = fd_eigenpairs(l, geom, twist, phys, n1, count)
    v2, _, _ = fd_eigenpairs(l, geom, twist, phys, n2, count)
    h1 = geom.length / (n1 + 1)
    h2 = geom.length / (n2 + 1)
    lam = (h1**2 * v2 - h2**2 * v1) / (h1**2 - h2**2)
    worst = np.max(np.abs(lam.imag) / np.maximum(1.0, np.abs(lam)))
    if worst > 1e-9:
        raise EigensolverFailure(
            f"extrapolated spectrum not real: imaginary part {worst:.3e}")
    return np.sort(lam.real)


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


def integrate_adaptive(f: Callable[[float], float], a: float, b: float,
                       tol: float = 1e-10, max_depth: int = 40) -> float:
    """Adaptive Simpson integral of f over [a, b] to absolute tolerance tol."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if a == b:
        return 0.0
    if a > b:
        return -integrate_adaptive(f, b, a, tol, max_depth)

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        if depth > max_depth:
            raise QuadratureFailure(
                f"recursion depth {max_depth} exceeded on [{lo}, {hi}]")
        mid = 0.5 * (lo + hi)
        flm = f(0.5 * (lo + mid))
        frm = f(0.5 * (mid + hi))
        left = simpson(flo, flm, fmid, mid - lo)
        right = simpson(fmid, frm, fhi, hi - mid)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return (recurse(lo, mid, flo, flm, fmid, left, 0.5 * eps, depth + 1)
                + recurse(mid, hi, fmid, frm, fhi, right, 0.5 * eps, depth + 1))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(fa, fm, fb, b - a)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)
