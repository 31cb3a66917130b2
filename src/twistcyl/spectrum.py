"""Bound states on the twisted cylinder: the phase-transformed potential V*,
the geometric phase, eigenenergies, and sampled wavefunctions.

The twist enters the longitudinal problem only through a removable phase, so
the spectrum and the probability density carry no twist dependence at all;
``eigenenergy`` therefore takes no twist argument by design, and the
collocation eigen-oracle in ``numeric`` confirms that choice numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (_TINY, CylinderGeometry, PhysicsParams, TwistProfile,
                       _real, square)

# from this phase on one ulp of it is a whole radian
_PHASE_LIMIT = 2.0**52


@dataclass(frozen=True)
class ModeNumbers:
    """Azimuthal quantum number l (any sign) and longitudinal n >= 1."""

    l: int
    n: int = 1

    def __post_init__(self):
        if int(self.l) != self.l:
            raise ValueError("l must be an integer")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("n must be an integer >= 1")


@np.errstate(all="ignore")
def _v_star(l, radius: float, t: float):
    # numpy divides: R^2 underflowed to 0 gives +-inf, not ZeroDivisionError;
    # where t (l^2 - 1/4) and R^2 both overflow, (l -+ 1/2) / R keep V* finite
    x = _real(l) if np.ndim(l) == 0 else l
    star = t * (square(x) - 0.25) / np.float64(square(radius))
    return np.where(np.isnan(star),
                    t * ((x - 0.5) / radius) * ((x + 0.5) / radius), star)


def gauge_potential_star(mode: ModeNumbers, geom: CylinderGeometry,
                         phys: PhysicsParams) -> float:
    """Phase-transformed potential V* = (hbar^2 / 2 m R^2)(l^2 - 1/4); no
    twist input exists; the -1/4 is da Costa's curvature potential.

    V* is also the energy floor of mode l: below it solutions are sinh-type
    and cannot satisfy both hard-wall conditions, so any correct spectrum
    lies strictly above it. It is +-inf where l^2 alone overflows (or
    |l| >= 2^1024) or R^2 underflows to 0, which leaves every sweep row
    degenerate (sub_threshold if embedded), and 0 where R^2 alone overflows
    (4e-321 at R = 1e160, l = 1); 0.5 at R = 1e200, l = 10^200.
    """
    return float(_v_star(mode.l, geom.radius, phys.hbar2_over_2m))


def _mode_energies(n, l, geom: CylinderGeometry, phys: PhysicsParams):
    """e = t (n pi / L)^2 + V*, with V* as in ``gauge_potential_star`` and
    t = hbar^2 / 2m, of modes (n, l) given as integers or as equal-length
    integer arrays; ``square`` gives an array the bits of its elements one
    at a time. A term that is not finite, or whose magnitude is below the
    smallest normal float, raises FloatingPointError naming it.
    """
    t = phys.hbar2_over_2m
    with np.errstate(all="ignore"):  # refused below
        box = t * square(n * np.pi / geom.length)
    star = _v_star(l, geom.radius, t)
    for name, term in (("V* = t (l^2 - 1/4) / R^2", star),
                       ("box term t (n pi / L)^2", box)):
        bad = np.ravel(~(np.isfinite(term) & (np.abs(term) >= _TINY)))
        if np.any(bad):
            at = np.flatnonzero(bad)[0]
            raise FloatingPointError(
                f"{name} of mode n = {np.ravel(n)[at]}, l = {np.ravel(l)[at]} "
                f"is {np.ravel(term)[at]}: not finite or below the smallest "
                "normal float")
    return box + star


def eigenenergy(mode: ModeNumbers, geom: CylinderGeometry,
                phys: PhysicsParams) -> float:
    """Bound-state energy of mode (n, l) in the hard-wall box of length L.

    e = (hbar^2/2m) (n pi / L)^2 + (hbar^2 / 2 m R^2)(l^2 - 1/4). Twist free:
    L -> inf leaves the wire spectrum, R -> inf the plain box levels. A term
    that is not finite or below the smallest normal float raises
    FloatingPointError.
    """
    return float(_mode_energies(mode.n, mode.l, geom, phys))


def even_grid(start: float, stop: float, count: int,
              endpoint: bool = True) -> np.ndarray:
    """``np.linspace(start, stop, count)`` that holds exactly ``count``
    points.

    Past its index range numpy raises a ValueError or an IndexError, or
    returns fewer points (none at all for 2^63 - 1 without the endpoint);
    each raises MemoryError here, as a count too large to allocate does.
    """
    try:
        grid = np.linspace(start, stop, count, endpoint=endpoint)
    except (ValueError, IndexError):
        grid = None
    if grid is None or grid.size != count:
        raise MemoryError(f"cannot hold a grid of {count} points")
    return grid


def twist_phase(twist: TwistProfile, l: int, z):
    """Geometric phase l theta(z) at a float or an array of heights.

    Because f = theta', this is l times the integral of f from 0 to z for
    every profile with theta(0) = 0, and it needs no quadrature. It is 0 at
    l = 0, even where theta overflows. Raises FloatingPointError where the
    phase is not finite or reaches 2^52 rad, since e^{i l theta} then keeps
    no digit; an |l| of 2^1024 or more reads as +-inf, so it raises too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phase = _real(l) * twist.theta(z) if l else 0.0 * np.asarray(z, float)
    bad = ~(np.abs(phase) < _PHASE_LIMIT)  # NaN is bad too
    if np.any(bad):
        raise FloatingPointError(
            f"twist phase l theta(z) = {np.asarray(phase)[bad].flat[0]} rad "
            f"for l = {l} is not finite or not below 2^52 rad")
    return phase


@dataclass(frozen=True)
class WavefunctionSample:
    """Mode wavefunction on a (phi, z) tensor grid.

    ``values[i, j]`` is psi(phi[i], z[j]); the area element of the twisted
    surface is sqrt(det g) dphi dz = R dphi dz, so ``norm_weight`` is R.
    """

    phi: np.ndarray
    z: np.ndarray
    values: np.ndarray
    norm_weight: float

    def density(self) -> np.ndarray:
        return np.abs(self.values)**2

    def norm(self) -> float:
        """Riemann-sum norm; exactly 1 up to rounding for the closed form."""
        dphi = 2.0 * np.pi / self.phi.size
        dz = self.z[1] - self.z[0]
        return float(np.sum(self.density()) * self.norm_weight * dphi * dz)


def bound_wavefunction(mode: ModeNumbers, geom: CylinderGeometry,
                       twist: TwistProfile, phys: PhysicsParams,
                       grid: tuple[int, int]) -> WavefunctionSample:
    """Normalized bound state psi = (pi R L)^(-1/2) sin(n pi z / L) e^{i l (phi + theta(z))}.

    phi covers [0, 2pi) without the duplicate endpoint; z includes both
    endpoints so the hard-wall zeros sit exactly on the grid. The twist
    contributes only the unimodular phase, so the density is twist free. A
    phase that ``twist_phase`` cannot resolve raises FloatingPointError, and
    so does an azimuthal phase |l phi| that reaches 2^52 rad on the grid,
    and so does n >= 2^52, where the half-wavelength L / n has shrunk to the
    float spacing of z near L, and so does pi R L outside [2^-1022, 2^1022].
    Inside that range the density scale 1/(pi R L) is a normal float,
    |psi| <= 2^511 and |psi|^2 is finite. A grid of more points than numpy
    can hold raises MemoryError.

    On the grid z_j = j L / m, m = n_z - 1, the sine is sin(n pi j / m) with
    n j reduced modulo 2 m and then folded to an argument of at most pi / 2
    in integers, so a large n loses no digit to a float product n z / L and
    a cell next to a node keeps its relative digits.
    """
    n_phi, n_z = grid
    if n_phi < 2 or n_z < 2:
        raise ValueError("grid must have at least 2 points per axis")
    if mode.n >= _PHASE_LIMIT:
        raise FloatingPointError(
            f"mode n = {mode.n} is not below 2^52: the half-wavelength L / n "
            "is no wider than the float spacing of z")
    scale = np.pi * geom.radius * geom.length
    if not _TINY <= scale <= 1.0 / _TINY:
        raise FloatingPointError(
            f"wavefunction of R = {geom.radius}, L = {geom.length}: pi R L = "
            f"{scale} is outside [2^-1022, 2^1022], the normalisation's range")
    phi = even_grid(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    z = even_grid(0.0, geom.length, n_z)
    # compared before any float product, which a huge l would overflow
    if abs(mode.l) >= _PHASE_LIMIT / float(phi[-1]):
        raise FloatingPointError(
            f"azimuthal phase l phi for l = {mode.l} reaches 2^52 rad on the "
            f"grid of {n_phi} angles: e^(i l phi) keeps no digit")
    phase = twist_phase(twist, mode.l, z)
    # (n mod 2m) j < 2 m^2 stays exact in int64 for any grid that fits in memory
    m = n_z - 1
    turns = (int(mode.n) % (2 * m) * np.arange(n_z)) % (2 * m)
    # sin(pi k / m) = +-sin(pi r / m), r = min(k mod m, m - k mod m) <= m / 2:
    # the folded argument is at most pi / 2 and exactly 0 at a node
    folded = np.minimum(turns % m, m - turns % m)
    sine = np.where(turns < m, 1.0, -1.0) * np.sin(np.pi * folded / m)
    longitudinal = sine / np.sqrt(scale) * np.exp(1j * phase)
    values = np.exp(1j * mode.l * phi)[:, None] * longitudinal[None, :]
    return WavefunctionSample(phi=phi, z=z, values=values,
                              norm_weight=geom.radius)


def list_bound_states(
        geom: CylinderGeometry, phys: PhysicsParams, n_max: int,
        l_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (n <= n_max, |l| <= l_max) states, ascending in energy, as the
    three columns n, l and energy.

    Energy ties (the +-l degeneracy) are broken by n, then |l|, then l >= 0
    first, which keeps listings stable across runs. A term of an energy that
    is not finite or below the smallest normal float, as (l^2 - 1/4)/R^2
    overflowing, raises FloatingPointError, and a table of more modes than
    numpy can hold raises MemoryError.
    """
    if n_max < 1 or l_max < 0:
        raise ValueError("need n_max >= 1 and l_max >= 0")
    width = 2 * l_max + 1
    try:
        index = np.arange(n_max * width)
    except (ValueError, OverflowError):  # past numpy's index range
        index = None
    # np.arange(2^63 - 1) returns no element at all
    if index is None or index.size != n_max * width:
        raise MemoryError(f"cannot hold a table of {n_max} x {width} modes")
    n, l = np.divmod(index, width)  # n-major, l ascending
    n += 1
    l -= l_max
    energy = _mode_energies(n, l, geom, phys)
    order = np.lexsort((l < 0, np.abs(l), n, energy))
    return n[order], l[order], energy[order]
