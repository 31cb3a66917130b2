"""Scattering through a finite twisted section.

Two scenarios share one interface-matching machinery:

* ``embedded_cylinder`` - the twisted section sits inside an infinite
  untwisted cylinder, so the outside channel opens at the mode threshold
  (hbar^2 / 2 m R^2)(l^2 - 1/4).
* ``free_particle`` - the section is embedded in free space and the outside
  wavevector is simply sqrt(2 m E)/hbar.

A twist of any profile theta(z) enters only as a gauge phase: inside the
section Z(z) = e^{i l (theta(z) - theta(0))} U(z), and the matching
conditions, continuity of Z and of the probability current (whose
derivative term Z' - i l f Z, f = theta', is the phase times U'), are
continuity of U and U', as the outside regions are untwisted. So r, A, B,
T and R are those of the untwisted section, U = A e^{r1 z} + B e^{r2 z} with

    r_{1,2} = -/+ sqrt((2m/hbar^2)(V* - E)),

principal square root (nonnegative real and imaginary parts), r1 the
decaying or backward mode, r2 the growing or forward one and V* the
phase-transformed potential; only the public t takes the phase
e^{i l (theta(L) - theta(0))}. The ODE oracle in ``numeric``, which
integrates the untransformed equation, is the independent check of that.

The solve uses the scaled basis

    U_II = A e^{-rho z} + B~ e^{rho (z-L)},    Z_III = t~ e^{ik(z-L)},

rho = r2, which writes the growing mode about the far interface (Ko &
Inkson, PRB 38, 9945 (1988)). Every exponential in the matching equations
is then e = e^{-rho L}, of modulus at most one, so deep tunnelling through
long sections stays finite instead of overflowing like e^{|rho| L}. The four
equations eliminate to one denominator

    D = (rho^2 - k^2) expm1(-2 rho L) + 2ik rho (1 + e^2),

whose terms both scale with rho: nothing cancels as E nears V*, where the
two modes coalesce in a removable singularity. The public amplitudes
B = B~ e and t are recovered afterwards; both are bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPropagatingChannel, ThresholdDegeneracy
from .geometry import (CylinderGeometry, PhysicsParams, TwistProfile, _real,
                       square)
from .spectrum import (_PHASE_LIMIT, ModeNumbers, gauge_potential_star,
                       twist_phase)

EMBEDDED_CYLINDER = "embedded_cylinder"
FREE_PARTICLE = "free_particle"

FLAG_OK = "ok"
FLAG_SUB_THRESHOLD = "sub_threshold"
FLAG_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ScatteringScenario:
    """Geometry, twist profile (a bare number is a constant rate), mode and
    particle constants of one setup; of the mode only l enters."""

    kind: str
    geom: CylinderGeometry
    twist: TwistProfile
    mode: ModeNumbers
    phys: PhysicsParams

    def __post_init__(self):
        if self.kind not in (EMBEDDED_CYLINDER, FREE_PARTICLE):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not isinstance(self.twist, TwistProfile):
            object.__setattr__(self, "twist",
                               TwistProfile.constant(self.twist))

    @classmethod
    def embedded(cls, geom: CylinderGeometry, twist, l: int,
                 phys: PhysicsParams = PhysicsParams()) -> "ScatteringScenario":
        return cls(EMBEDDED_CYLINDER, geom, twist, ModeNumbers(l=l), phys)

    @classmethod
    def free(cls, geom: CylinderGeometry, twist, l: int,
             phys: PhysicsParams = PhysicsParams()) -> "ScatteringScenario":
        return cls(FREE_PARTICLE, geom, twist, ModeNumbers(l=l), phys)

    @property
    def inside_threshold(self) -> float:
        """Energy where the two region-II roots coalesce."""
        return gauge_potential_star(self.mode, self.geom, self.phys)

    @property
    def outside_threshold(self) -> float:
        """Propagation threshold of the outside regions."""
        return self.inside_threshold if self.kind == EMBEDDED_CYLINDER else 0.0


@dataclass(frozen=True)
class ScatteringSolution:
    """Amplitudes and probabilities of one solved energy."""

    r: complex
    t: complex
    A: complex
    B: complex
    transmission: float
    reflection: float


@dataclass(frozen=True)
class SweepResult:
    """Columns of a transmission sweep, one entry per energy of the grid."""

    energy: np.ndarray
    transmission: np.ndarray
    reflection: np.ndarray
    flag: np.ndarray  # str: FLAG_OK, FLAG_SUB_THRESHOLD or FLAG_DEGENERATE


def region_roots(energies, scenario: ScatteringScenario):
    """Roots (r1, r2) = -/+ sqrt((V* - E)/t) of the untwisted region-II mode
    equation at each energy, with t = hbar^2/2m; no twist enters.

    Principal branch: the real and imaginary parts of r2 are nonnegative. At
    E = V* the two roots coalesce at 0.
    """
    energies = np.asarray(energies, dtype=float)
    root = np.sqrt(((scenario.inside_threshold - energies)
                    / scenario.phys.hbar2_over_2m).astype(complex))
    return -root, root


def outside_wavevector(energies, scenario: ScatteringScenario):
    """Wavevector of the propagating outside channel; raises below threshold."""
    energies = np.asarray(energies, dtype=float)
    thr = scenario.outside_threshold
    if np.any(energies <= thr):
        raise NoPropagatingChannel(
            f"energy {energies[energies <= thr].flat[0]} at or below the "
            f"propagation threshold {thr}")
    return np.sqrt((energies - thr) / scenario.phys.hbar2_over_2m)


def probability_current(z_val: complex, z_deriv: complex, l: int, f: float,
                        phys: PhysicsParams) -> float:
    """Pointwise probability flux of a longitudinal amplitude.

    j = (i hbar / 2m)(Z conj(Z)' - conj(Z) Z') - (hbar/m) l f |Z|^2, f the
    local twist rate theta'; the second term is the twist contribution and
    forces the modified derivative conditions at the interfaces. An l or a
    |Z|^2 past the float range reads inf, so j is then +-inf or NaN.
    """
    standard = (1j * phys.hbar / (2.0 * phys.mass)
                * (z_val * np.conj(z_deriv) - np.conj(z_val) * z_deriv))
    twist_term = (phys.hbar / phys.mass) * _real(l) * f * square(abs(z_val))
    return float(standard.real - twist_term)


def _solve_batch(energies: np.ndarray, scenario: ScatteringScenario):
    """Amplitudes (r, A, B, t) at energies that all have an open channel,
    t without its twist phase.

    The closed form of the module docstring, elementwise over the grid:
    t~ = 4ik rho e / D, r = -(rho^2 + k^2) expm1(-2 rho L) / D,
    A = 2ik (rho - ik) / D and B~ = 2ik (rho + ik) e / D. These are ratios
    of quadratic forms in (rho, k), so outside rho L both enter scaled by
    one factor that keeps them from underflowing: rho^2 = (V* - E)/s and
    k^2 = (E - E_thr)/s with s = |V* - E| + (E - E_thr). rho^2 + k^2 is then
    exactly 0 in the embedded scenario, and R with it. E == V* gives 0/0.
    D is NaN where the inside phase |Im rho| L reaches 2^52 rad, which keeps
    no digit, unless rho^2 + k^2 == 0: a section that matches the outside
    (r = A = 0, B = t = 1) reads no phase. The caller flags any amplitude
    that is not finite.
    """
    length = scenario.geom.length
    # rho L may overflow to inf: e^{-inf} = 0 is the decaying limit
    with np.errstate(all="ignore"):
        below = scenario.inside_threshold - energies  # t rho^2
        above = energies - scenario.outside_threshold  # t k^2
        scale = np.abs(below) + above
        rho = np.sqrt((below / scale).astype(complex))
        ik = 1j * np.sqrt(above / scale)
        plus = (below + above) / scale  # rho^2 + k^2
        rho_l = region_roots(energies, scenario)[1] * length
        e = np.exp(-rho_l)
        # a sum, not 2.0 * rho_l: a complex product turns inf * 0 into NaN
        m = np.expm1(-(rho_l + rho_l))
        d = (below - above) / scale * m + 2.0 * ik * rho * (1.0 + e * e)
        d[(plus != 0.0) & ~(np.abs(rho_l.imag) < _PHASE_LIMIT)] = np.nan
        k_l = np.sqrt(above / scenario.phys.hbar2_over_2m) * length
        return (-plus * m / d, 2.0 * ik * (rho - ik) / d,
                2.0 * ik * (rho + ik) * e * e / d,
                4.0 * ik * rho * e * np.exp(-1j * k_l) / d)


def solve_scattering(energy: float, scenario: ScatteringScenario) -> ScatteringSolution:
    """Solve the four interface-matching equations for (r, A, B, t).

    Z_I = e^{ikz} + r e^{-ikz},
    Z_II = e^{i l (theta(z) - theta(0))} (A e^{r1 z} + B e^{r2 z}),
    Z_III = t e^{ikz}, with continuity of Z and of the probability current at
    z = 0 and z = L. The incident amplitude is fixed to one.
    """
    outside_wavevector(energy, scenario)  # a closed channel is refused first
    r_amp, a_amp, b_amp, t_amp = (
        complex(v[0]) for v in _solve_batch(np.array([energy]), scenario))
    if not all(np.isfinite((r_amp, a_amp, b_amp, t_amp))):
        raise ThresholdDegeneracy(
            f"matching system at energy {energy} has no finite solution "
            "(E = V*, an overflow, or an inside phase of 2^52 rad or more)")
    start, end = twist_phase(scenario.twist, scenario.mode.l,
                             np.array([0.0, scenario.geom.length]))
    return ScatteringSolution(
        r=r_amp, t=t_amp * complex(np.exp(1j * (end - start))), A=a_amp,
        B=b_amp, transmission=square(abs(t_amp)),
        reflection=square(abs(r_amp)))


def transmission_sweep(scenario: ScatteringScenario,
                       energies) -> SweepResult:
    """Solve every energy of a strictly increasing grid, never aborting.

    Points without a propagating outside channel are reported with the
    sub_threshold flag and the convention T = 0, R = 1. All other points are
    solved in one batch, and those whose solve is not finite (E == V*
    exactly, an overflow, or an inside phase |Im rho| L of 2^52 rad or more)
    get the degenerate flag and NaN probabilities.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1 or energies.size < 1:
        raise ValueError("need a one-dimensional energy grid")
    if energies.size > 1 and not np.all(np.diff(energies) > 0.0):
        raise ValueError("energy grid must be strictly increasing")
    sub = energies <= scenario.outside_threshold
    live = ~sub
    trans = np.zeros(energies.size)
    refl = np.ones(energies.size)
    r_amp, _, _, t_amp = _solve_batch(energies[live], scenario)
    trans[live] = np.abs(t_amp)**2
    refl[live] = np.abs(r_amp)**2
    degenerate = ~(np.isfinite(trans) & np.isfinite(refl))
    trans[degenerate] = np.nan
    refl[degenerate] = np.nan
    flags = np.where(sub, FLAG_SUB_THRESHOLD,
                     np.where(degenerate, FLAG_DEGENERATE, FLAG_OK))
    return SweepResult(energies, trans, refl, flags)
