"""Reduced geometry by geodesic shooting.
=========================================

The weighted path energy int sqrt(tau)(|gamma'|^2 + R) dtau, rewritten in
sigma = 2 sqrt(tau), is minimized by shooting the scalar radial ODE.  On
flat space minimizers are straight lines and the reduced distance is
rho^2 / 4 tau; on the shrinking round sphere the radial momentum is
conserved and everything has a closed form to test against.
"""

import math

import numpy as np

from mvlab import FlowGeometry, ReducedDistanceField, shoot_l_geodesic

flat = FlowGeometry.gaussian_soliton(2)
field = ReducedDistanceField(flat)

print("straight-line shooting on flat space:")
geod = shoot_l_geodesic(flat, 0.8, 1.0)
print(f"  v = 0.8, sigma_bar = 1: endpoint = {geod.x_end:.12f}, "
      f"energy = {geod.length:.12f}")

print("\nreduced distance vs rho^2/4tau:")
for rho, tau in ((0.5, 0.1), (1.0, 0.25), (2.0, 1.0)):
    ell = field.ell(rho, tau)
    print(f"  rho = {rho:3.1f}, tau = {tau:4.2f}: ell = {ell:.12f}, "
          f"exact {rho * rho / (4 * tau):.12f}")

print("\nendpoint derivative identities (closed-form derivatives vs the "
      "shot's terminal velocity):")
rs, rt, eik = field.first_order_residuals(1.0, 0.25)
print(f"  spatial {rs:.2e}, time {rt:.2e}, first-order equation {eik:.2e}")

print("\nreduced volume of the flat model is identically one:")
for tau in (1e-3, 1e-2, 0.3):
    val, err = field.reduced_volume(tau)
    print(f"  tau = {tau:6.3f}: theta = {val:.12f}")

print("\nshrinking round 3-sphere: theta decreases in backward time:")
sphere = ReducedDistanceField(FlowGeometry.shrinking_sphere(3))
for tau in (0.05, 0.1, 0.2, 0.3):
    val, _ = sphere.reduced_volume(tau)
    print(f"  tau = {tau:4.2f}: theta = {val:.8f}")

print("\ncurvature integral along minimizers vs the Li-Yau expression:")
from mvlab.kernels import SubHeatKernel, liyau_expression
kern = SubHeatKernel(sphere)
for rho, tau in ((0.8, 0.2), (1.2, 0.3)):
    lhs = liyau_expression(kern, rho, tau)
    kval, _ = sphere.k_curvature_integral(rho, tau)
    rhs = 3.0 / (2.0 * tau) - kval / (2.0 * tau ** 1.5)
    print(f"  rho = {rho}, tau = {tau}: Q = {lhs:.8f} vs "
          f"n/2tau - K/2tau^1.5 = {rhs:.8f}")
