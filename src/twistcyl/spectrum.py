"""Bound states on the twisted cylinder: effective potentials, the geometric
phase, eigenenergies, and sampled wavefunctions.

The twist enters the longitudinal problem only through a removable phase, so
the spectrum and the probability density carry no twist dependence at all;
``eigenenergy`` therefore takes no twist argument by design, and the
collocation eigen-oracle in ``numeric`` confirms that choice numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CylinderGeometry, PhysicsParams, TwistProfile

DEFAULT_GRID = (256, 256)


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


def effective_potential(mode: ModeNumbers, geom: CylinderGeometry,
                        alpha: float, phys: PhysicsParams) -> float:
    """Raw mode-l potential (hbar^2 / 2 m R^2) (g_zz l^2 - 1/4), g_zz = 1 + R^2 a^2.

    The centrifugal term carries the twist through g_zz; the phase transform
    removes it again, see ``gauge_potential_star``. It is evaluated as
    t [(l^2 - 1/4)/R^2 + (a l)^2], so R^2 a^2 cannot overflow when the
    potential itself is finite.
    """
    return phys.hbar2_over_2m * ((mode.l**2 - 0.25) / geom.radius**2
                                 + (alpha * mode.l)**2)


def gauge_potential_star(mode: ModeNumbers, geom: CylinderGeometry,
                         phys: PhysicsParams) -> float:
    """Phase-transformed potential (hbar^2 / 2 m R^2)(l^2 - 1/4); no twist input exists."""
    return phys.hbar2_over_2m * (mode.l**2 - 0.25) / geom.radius**2


def eigenenergy(mode: ModeNumbers, geom: CylinderGeometry,
                phys: PhysicsParams) -> float:
    """Bound-state energy of mode (n, l) in the hard-wall box of length L.

    e = (hbar^2/2m) (n pi / L)^2 + (hbar^2 / 2 m R^2)(l^2 - 1/4). Twist free:
    L -> inf leaves the wire spectrum, R -> inf the plain box levels.
    """
    t = phys.hbar2_over_2m
    box = t * (mode.n * np.pi / geom.length)**2
    return box + gauge_potential_star(mode, geom, phys)


def no_bound_states_below(mode: ModeNumbers, geom: CylinderGeometry,
                          phys: PhysicsParams) -> float:
    """Energy floor for mode l: below it only the trivial solution survives.

    Solutions under the phase-transformed potential are sinh-type there and
    cannot satisfy both hard-wall conditions, so any correct spectrum lies
    strictly above the returned value. Test harnesses assert the
    eigen-oracle finds nothing at or below it.
    """
    return gauge_potential_star(mode, geom, phys)


def twist_phase(twist: TwistProfile, l: int, z):
    """Geometric phase l theta(z) at a float or an array of heights.

    Because f = theta', this is l times the integral of f from 0 to z for
    every profile with theta(0) = 0, and it needs no quadrature.
    """
    return l * twist.theta(z)


def _sinpi(x: np.ndarray) -> np.ndarray:
    # sin(pi x) with exact zeros at integer x; np.sin(n*pi) only rounds to ~1e-16.
    x = np.asarray(x, dtype=float)
    k = np.floor(x)
    s = np.sin(np.pi * (x - k))
    return np.where(k.astype(np.int64) % 2 == 0, s, -s)


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
                       grid: tuple[int, int] = DEFAULT_GRID) -> WavefunctionSample:
    """Normalized bound state psi = (pi R L)^(-1/2) sin(n pi z / L) e^{i l (phi + theta(z))}.

    phi covers [0, 2pi) without the duplicate endpoint; z includes both
    endpoints so the hard-wall zeros sit exactly on the grid. The twist
    contributes only the unimodular phase, so the density is twist free.
    """
    n_phi, n_z = grid
    if n_phi < 2 or n_z < 2:
        raise ValueError("grid must have at least 2 points per axis")
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    z = np.linspace(0.0, geom.length, n_z)
    phase = twist_phase(twist, mode.l, z)
    amp = _sinpi(mode.n * z / geom.length) / np.sqrt(np.pi * geom.radius * geom.length)
    longitudinal = amp * np.exp(1j * phase)
    values = np.exp(1j * mode.l * phi)[:, None] * longitudinal[None, :]
    return WavefunctionSample(phi=phi, z=z, values=values,
                              norm_weight=geom.radius)


def list_bound_states(geom: CylinderGeometry, phys: PhysicsParams,
                      n_max: int, l_max: int) -> list[tuple[ModeNumbers, float]]:
    """All (n <= n_max, |l| <= l_max) states, ascending in energy.

    Energy ties (the +-l degeneracy) are broken by n, then |l|, then l >= 0
    first, which keeps listings stable across runs.
    """
    if n_max < 1 or l_max < 0:
        raise ValueError("need n_max >= 1 and l_max >= 0")
    states = []
    for n in range(1, n_max + 1):
        for l in range(-l_max, l_max + 1):
            mode = ModeNumbers(l=l, n=n)
            states.append((mode, eigenenergy(mode, geom, phys)))
    states.sort(key=lambda s: (s[1], s[0].n, abs(s[0].l), s[0].l < 0))
    return states
