"""Closed-form oracles and pinned tolerances for the benchmark.

These are the benchmark's own copies: nothing here imports mvlab or the
repository's tests, so an oracle cannot drift together with the code it
checks.  Each tolerance names the acceptance criterion or suite check of
mvlab that pins it.
"""

import math

from scipy import integrate

# Pinned tolerances (absolute unless stated otherwise).
ELL_TOL = 1e-8            # criterion 07: reduced distance against its closed form
THETA_TOL = 1e-6          # criterion 07: reduced volume
FLAT_JI_TOL = 1e-4        # criterion 08: Jhat = Ihat = 1 on the flat model
MONOTONE_SLACK = 3e-6     # criterion 09 / jhat_sweep: shot-kernel slack
SWEEP_TOL = 1e-6          # sweeps.SweepReport default and mvlab sweep tolerance
WATSON_TOL = 1e-5         # criterion 01: heat ball / heat sphere on flat space
HEAT_H3_TOL = 1e-4        # criterion 06: heat sphere on H3
GREEN_SPHERE_TOL = 1e-7   # suites mv_sphere[harmonic-quadratic]
GREEN_MV_TOL = 1e-6       # suites mv_sphere / mv_ball[10-|y|^2]
DEFICIT_EQ_TOL = 1e-6     # criterion 05: sub-Green equality case
DEFICIT_SIGN_TOL = 1e-7   # criterion 05: one-sided deficits
DJ_TOL = 1e-4             # criterion 03: dJ/dr against the Laplacian integral
RELATION_TOL = 1e-6       # criterion 04: r^n I = n int eta^(n-1) J (relative)
HARMONIC_J_TOL = 1e-7     # criterion 02: J of a harmonic field
DENSITY_TOL = 1e-4        # criterion 12: Jbar / Ibar against the density
CAP_TOL = 0.05            # suites cap_convergence

GAUSSIAN_DENSITY_N1 = math.sqrt(2.0 * math.pi / math.e)


def s3_ell(x, tau, n=3):
    """Reduced distance of the shrinking round S^n at comoving x, time tau.

    Radial minimizers of the homogeneous flow have constant momentum, so

        ell = (x^2 / A + (n/2)(sigma - A)) / sigma,

    with sigma = 2 sqrt(tau), beta^2 = (n - 1)/2 and A = arctan(beta sigma)/beta.
    """
    sigma = 2.0 * math.sqrt(tau)
    beta = math.sqrt((n - 1) / 2.0)
    a = math.atan(beta * sigma) / beta
    return (x * x / a + 0.5 * n * (sigma - a)) / sigma


def s3_theta(tau, n=3):
    """Reduced volume of the shrinking round S^n from the closed-form ell.

    The sphere has squared radius c = 1 + 2(n - 1) tau at backward time tau;
    the comoving angle x runs over [0, pi] with volume element
    |S^(n-1)| (sqrt(c) sin x)^(n-1) sqrt(c) dx.
    """
    c = 1.0 + 2.0 * (n - 1) * tau
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    pref = (4.0 * math.pi * tau) ** (-n / 2.0) * area * math.sqrt(c) ** n

    def f(x):
        return pref * math.exp(-s3_ell(x, tau, n)) * math.sin(x) ** (n - 1)

    val, _ = integrate.quad(f, 0.0, math.pi, epsabs=1e-14, epsrel=1e-13,
                            limit=200)
    return val
