"""The scipy reference for the literal scattering equation, shared by the
tests of the closed form and of the ODE oracle."""

import numpy as np
from scipy.integrate import solve_ivp


def literal_ode_probabilities(energy: float, scenario):
    """(T, R) from DOP853 on the literal mode equation of any twist profile.

    In the unknowns (Z, w) with w = Z' - i l f Z, the current's derivative
    term, the equation reads Z' = i l f Z + w, w' = ((V* - E)/t) Z + i l f w
    with t = hbar^2/2m: a change of unknowns that keeps the twist and needs
    no f', not the gauge transform. Integrates backward from a unit outgoing
    wave at z = L and matches plane waves at z = 0.
    """
    t = scenario.phys.hbar2_over_2m
    l, f = scenario.mode.l, scenario.twist.f
    c = (scenario.inside_threshold - energy) / t
    k = np.sqrt((energy - scenario.outside_threshold) / t)
    length = scenario.geom.length

    def rhs(z, y):
        ilf = 1j * l * f(z)
        return [ilf * y[0] + y[1], c * y[0] + ilf * y[1]]

    out = np.exp(1j * k * length)
    sol = solve_ivp(rhs, (length, 0.0), [out, 1j * k * out], method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    z0, w0 = sol.y[:, -1]
    a_in = 0.5 * (z0 + w0 / (1j * k))
    b_out = 0.5 * (z0 - w0 / (1j * k))
    return 1.0 / abs(a_in)**2, abs(b_out / a_in)**2
