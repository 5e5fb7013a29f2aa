"""Heat balls and the parabolic mean value property.
====================================================

A heat ball is the super-level set {H >= r^{-n}} of a backward heat kernel
in space-time.  On R^2 its profile is rho(tau)^2 = 4 tau log(r^2 / 4 pi tau).
Averaging a caloric function with the weight |x-y|^2 / 4 tau^2 over the heat
ball returns its value at the center; the heat-sphere version integrates
|grad H|^2 / sqrt(|grad H|^2 + H_t^2) over the boundary with the space-time
area element.
"""

import math

import numpy as np

from mvlab import FlowGeometry, HeatKernel, heatball_profile, sphere_integrate
from mvlab.fields import make_field
from mvlab import mv_parabolic as mvp

e2 = FlowGeometry.euclidean(2)
kern = HeatKernel(e2)

region = heatball_profile(kern, 1.0)
print(f"heat ball at r = 1 on R^2: tau_max = {region.tau_max:.10f} "
      f"(exact 1/4pi = {1 / (4 * math.pi):.10f})")
print("profile samples (tau, rho):")
for u in (0.1, 0.3, 0.5, 0.7, 0.9):
    tau = u * region.tau_max
    print(f"  {tau:.5f}  {region.profile_rho(tau):.6f}")

print("\nWatson's identity for the caloric function |y|^2 + 4t:")
cq = make_field("caloric-quadratic", e2)
for r in (0.5, 1.0):
    lhs, rhs, resid = mvp.mv_heat_ball(kern, cq, r)
    print(f"  r = {r:3.1f}: u(0,0) = {lhs}, recovered = {rhs:+.2e}, "
          f"residual = {resid:.2e}")

print("\nheat-sphere weight integrates to one:")
val, err = sphere_integrate(region,
                            lambda s: s.grad ** 2 / np.hypot(s.grad, s.dtau))
print(f"  surface weight = {val:.12f} (err est {err:.1e})")

print("\nsame theorem on a curved static model (hyperbolic 3-space):")
h3 = FlowGeometry.hyperbolic(3)
kern3 = HeatKernel(h3)
for name in ("constant-1", "exp-radial"):
    f = make_field(name, h3)
    lhs, rhs, resid = mvp.mv_heat_sphere(kern3, f, 1.0)
    print(f"  v = {name:12s}: center {lhs:.6f}, recovered {rhs:.6f}, "
          f"residual {resid:.2e}")

print("\ntruncation caps converge to the center value as the slice drops:")
one = make_field("constant-1", e2)
for s, cap in zip((1e-2, 1e-3, 1e-4),
                  mvp.truncation_convergence(kern, one, 1.0, [1e-2, 1e-3, 1e-4])):
    print(f"  s = {s:.0e}: cap integral = {cap:.6f}")
