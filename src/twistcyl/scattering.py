"""Scattering through a finite twisted section.

Two scenarios share one interface-matching machinery:

* ``embedded_cylinder`` - the twisted section sits inside an infinite
  untwisted cylinder, so the outside channel opens at the mode threshold
  (hbar^2 / 2 m R^2)(l^2 - 1/4).
* ``free_particle`` - the section is embedded in free space and the outside
  wavevector is simply sqrt(2 m E)/hbar.

Inside the section Z(z) = A e^{r1 z} + B e^{r2 z} with

    r_{1,2} = i l a -/+ sqrt((2m/hbar^2)(V_eff - E) - l^2 a^2),

principal square root (nonnegative real and imaginary parts), so r1 is the
decaying or backward mode and r2 the growing or forward one. The four
matching equations are assembled literally from wavefunction continuity plus
the current-continuity derivative conditions; no twist terms are cancelled
by hand, so the twist insensitivity of the transmission emerges from the
solve rather than being built in.

The solve uses the scaled basis

    Z_II = A e^{r1 z} + B~ e^{r2 (z-L)},    Z_III = t~ e^{ik(z-L)},

which writes the growing mode about the far interface (Ko & Inkson, PRB 38,
9945 (1988)). Every exponential in the matching equations then has modulus
at most one, so deep tunnelling through long sections stays well conditioned
instead of overflowing like e^{|r| L}; the equations eliminate in closed
form. The public amplitudes B = B~ e^{-r2 L} and t = t~ e^{-ikL} are
recovered afterwards; both are bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPropagatingChannel, ThresholdDegeneracy
from .geometry import CylinderGeometry, PhysicsParams
from .spectrum import ModeNumbers, effective_potential, gauge_potential_star

EMBEDDED_CYLINDER = "embedded_cylinder"
FREE_PARTICLE = "free_particle"

# energies closer to the inside threshold than this are refused: the two
# region-II modes coalesce there and the matching system turns singular
THRESHOLD_WINDOW = 1e-9

FLAG_OK = "ok"
FLAG_SUB_THRESHOLD = "sub_threshold"
FLAG_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ScatteringScenario:
    """Geometry, twist rate, mode and particle constants of one setup.

    ``mode.n`` is irrelevant here; only the conserved azimuthal number l
    enters the longitudinal problem.
    """

    kind: str
    geom: CylinderGeometry
    alpha: float
    mode: ModeNumbers
    phys: PhysicsParams

    def __post_init__(self):
        if self.kind not in (EMBEDDED_CYLINDER, FREE_PARTICLE):
            raise ValueError(f"unknown scenario kind {self.kind!r}")

    @classmethod
    def embedded(cls, geom: CylinderGeometry, alpha: float, l: int,
                 phys: PhysicsParams = PhysicsParams()) -> "ScatteringScenario":
        return cls(EMBEDDED_CYLINDER, geom, float(alpha), ModeNumbers(l=l), phys)

    @classmethod
    def free(cls, geom: CylinderGeometry, alpha: float, l: int,
             phys: PhysicsParams = PhysicsParams()) -> "ScatteringScenario":
        return cls(FREE_PARTICLE, geom, float(alpha), ModeNumbers(l=l), phys)

    @property
    def inside_threshold(self) -> float:
        """Energy where the two region-II roots coalesce."""
        return gauge_potential_star(self.mode, self.geom, self.phys)

    @property
    def outside_threshold(self) -> float:
        """Propagation threshold of the outside regions."""
        if self.kind == EMBEDDED_CYLINDER:
            return gauge_potential_star(self.mode, self.geom, self.phys)
        return 0.0


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
    """Roots (r1, r2) of the region-II mode equation at each energy.

    Assembled from the raw twist-carrying potential; the l^2 a^2 under the
    square root cancels against the centrifugal g_zz term, which is exactly
    why the magnitude dynamics is twist free. Raises ThresholdDegeneracy if
    the two roots coalesce at any of the energies.
    """
    energies = np.asarray(energies, dtype=float)
    phys = scenario.phys
    v_eff = effective_potential(scenario.mode, scenario.geom, scenario.alpha,
                                phys)
    l_alpha = scenario.mode.l * scenario.alpha
    arg = (v_eff - energies) / phys.hbar2_over_2m - l_alpha**2
    root = np.sqrt(arg.astype(complex))  # principal branch: Re, Im >= 0
    r1 = 1j * l_alpha - root
    r2 = 1j * l_alpha + root
    close = np.abs(r1 - r2) < 1e-12 * np.maximum(
        1.0, np.maximum(np.abs(r1), np.abs(r2)))
    if np.any(close):
        raise ThresholdDegeneracy(
            f"degenerate region roots at energy {energies[close].flat[0]}")
    return r1, r2


def outside_wavevector(energies, scenario: ScatteringScenario):
    """Wavevector of the propagating outside channel; raises below threshold."""
    energies = np.asarray(energies, dtype=float)
    thr = scenario.outside_threshold
    if np.any(energies <= thr):
        raise NoPropagatingChannel(
            f"energy {energies[energies <= thr].flat[0]} at or below the "
            f"propagation threshold {thr}")
    return np.sqrt((energies - thr) / scenario.phys.hbar2_over_2m)


def probability_current(z_val: complex, z_deriv: complex, l: int, alpha: float,
                        phys: PhysicsParams) -> float:
    """Pointwise probability flux of a longitudinal amplitude.

    j = (i hbar / 2m)(Z conj(Z)' - conj(Z) Z') - (hbar/m) l a |Z|^2; the
    second term is the twist contribution and is what forces the modified
    derivative conditions at the interfaces.
    """
    standard = (1j * phys.hbar / (2.0 * phys.mass)
                * (z_val * np.conj(z_deriv) - np.conj(z_val) * z_deriv))
    twist_term = (phys.hbar / phys.mass) * l * alpha * abs(z_val)**2
    return float(standard.real - twist_term)


def _solve_batch(energies: np.ndarray, scenario: ScatteringScenario):
    """Amplitudes (r, A, B, t) at energies that all have an open channel.

    Eliminates the matching equations in the scaled basis of the module
    docstring elementwise over the grid, then converts back to the public
    amplitudes. The caller keeps threshold-window energies out and flags any
    amplitude that is not finite (a singular matching system).
    """
    k = outside_wavevector(energies, scenario)
    r1, r2 = region_roots(energies, scenario)
    l_alpha = scenario.mode.l * scenario.alpha
    length = scenario.geom.length
    ik = 1j * k
    e1 = np.exp(r1 * length)    # decaying mode across the section
    e2 = np.exp(-r2 * length)   # growing mode, written about z = L
    p1, p2 = r1 - 1j * l_alpha, r2 - 1j * l_alpha
    # continuity of Z gives r = (A - 1) + e2 B~ and t~ = e1 A + B~; the current
    # conditions then leave (ik + p1) A + (ik + p2) e2 B~ = 2ik and
    # (p1 - ik) e1 A + (p2 - ik) B~ = 0, solved by Cramer's rule. e1 e2 stays
    # the product of the rounded exponentials, so its phase matches theirs.
    det = (ik + p1) * (p2 - ik) - (ik + p2) * e2 * (p1 - ik) * e1
    with np.errstate(divide="ignore", invalid="ignore"):
        a_amp = 2.0 * ik * (p2 - ik) / det
        b_scaled = -2.0 * ik * (p1 - ik) * e1 / det
        r_amp = (a_amp - 1.0) + e2 * b_scaled
        t_scaled = e1 * a_amp + b_scaled
        return r_amp, a_amp, b_scaled * e2, t_scaled * np.exp(-ik * length)


def solve_scattering(energy: float, scenario: ScatteringScenario) -> ScatteringSolution:
    """Solve the four interface-matching equations for (r, A, B, t).

    Z_I = e^{ikz} + r e^{-ikz}, Z_II = A e^{r1 z} + B e^{r2 z},
    Z_III = t e^{ikz}, with continuity of Z and of the probability current at
    z = 0 and z = L. The incident amplitude is fixed to one.
    """
    outside_wavevector(energy, scenario)  # a closed channel is refused first
    if abs(energy - scenario.inside_threshold) < THRESHOLD_WINDOW:
        raise ThresholdDegeneracy(
            f"energy {energy} within {THRESHOLD_WINDOW} of the threshold "
            f"{scenario.inside_threshold}")
    r_amp, a_amp, b_amp, t_amp = (
        complex(v[0]) for v in _solve_batch(np.array([energy]), scenario))
    if not all(np.isfinite((r_amp, a_amp, b_amp, t_amp))):
        raise ThresholdDegeneracy(
            f"matching system at energy {energy} has no finite solution")
    return ScatteringSolution(
        r=r_amp, t=t_amp, A=a_amp, B=b_amp,
        transmission=abs(t_amp)**2, reflection=abs(r_amp)**2)


def transmission_sweep(scenario: ScatteringScenario,
                       energies) -> SweepResult:
    """Solve every energy of a strictly increasing grid, never aborting.

    Points without a propagating outside channel are reported with the
    sub_threshold flag and the convention T = 0, R = 1; points inside the
    degenerate-roots window, or whose solve is not finite, get the
    degenerate flag and NaN probabilities. All other points are solved in
    one batch.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1 or energies.size < 1:
        raise ValueError("need a one-dimensional energy grid")
    if energies.size > 1 and not np.all(np.diff(energies) > 0.0):
        raise ValueError("energy grid must be strictly increasing")
    sub = energies <= scenario.outside_threshold
    degenerate = ~sub & (np.abs(energies - scenario.inside_threshold)
                         < THRESHOLD_WINDOW)
    live = ~(sub | degenerate)
    trans = np.zeros(energies.size)
    refl = np.ones(energies.size)
    r_amp, _, _, t_amp = _solve_batch(energies[live], scenario)
    trans[live] = np.abs(t_amp)**2
    refl[live] = np.abs(r_amp)**2
    degenerate |= ~(np.isfinite(trans) & np.isfinite(refl))
    trans[degenerate] = np.nan
    refl[degenerate] = np.nan
    flags = np.where(sub, FLAG_SUB_THRESHOLD,
                     np.where(degenerate, FLAG_DEGENERATE, FLAG_OK))
    return SweepResult(energies, trans, refl, flags)
