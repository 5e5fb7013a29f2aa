"""Monotone quantities along Ricci flow.
========================================

For the reduced-distance kernel K = (4 pi tau)^{-n/2} exp(-ell), the surface
average of the Li-Yau numerator over heat spheres, Jhat(r), and the volume
average of the Li-Yau expression over heat balls, Ihat(a, r), are
non-increasing in r with Jhat <= Ihat.  On the flat model (the trivial
shrinking soliton) both are constant and equal to the reduced volume 1.

The kernel is Perelman's closed form of ell on both flows; the soliton
identities at the end differentiate the shot ell, its independent oracle.
"""

from mvlab import FlowGeometry, ReducedDistanceField
from mvlab.kernels import SubHeatKernel
from mvlab import mv_parabolic as mvp

print("flat model (equality case): Jhat = Ihat = 1")
flat = ReducedDistanceField(FlowGeometry.gaussian_soliton(2))
kflat = SubHeatKernel(flat)
for r in (0.3, 0.5, 0.8):
    jv, _ = mvp.jhat_quantity(kflat, r)
    iv, _ = mvp.ihat_quantity(kflat, 0.0, r)
    print(f"  r = {r:3.1f}: Jhat = {jv:.8f}  Ihat = {iv:.8f}")

print("\nshrinking round 3-sphere (strict monotonicity):")
sphere = ReducedDistanceField(FlowGeometry.shrinking_sphere(3))
ksph = SubHeatKernel(sphere)
out = mvp.jhat_sweep(ksph, [0.8, 1.4, 2.0])
for r, jv, iv in zip(out["jhat"].grid, out["jhat"].values,
                     out["ihat0"].values):
    print(f"  r = {r:3.1f}: Jhat = {jv:.8f} <= Ihat = {iv:.8f}")
print(f"  non-increasing verdicts: Jhat {out['jhat'].monotone_ok}, "
      f"Ihat {out['ihat0'].monotone_ok}")

print("\nsoliton identities at sample points (flat: all vanish):")
chk = mvp.soliton_residuals(flat, [(0.8, 0.2), (1.2, 0.3)])
print(f"  flat   : heat {chk.max_abs_conjugate_heat:.1e}, first-order "
      f"{chk.max_abs_first_order:.1e}, entropy {chk.max_abs_entropy:.1e}")
chk = mvp.soliton_residuals(sphere, [(0.8, 0.2), (1.2, 0.3)])
print(f"  sphere : heat {min(chk.conjugate_heat):+.4f}..{max(chk.conjugate_heat):+.4f} "
      "(strictly positive: the kernel is a strict subsolution), "
      f"first-order {chk.max_abs_first_order:.1e}")
