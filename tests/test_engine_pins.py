"""Bit pins of the heat-ball engines.

Every heat-ball integral runs through `quad.integrate_de`,
`regions._time_integral`, `regions._slice_integrals` with `quad.qk21` and
the kernel slices.  Rewriting them for speed must keep every bit, so the
(value, error) pairs below, written by the engines before that rewrite, are
asserted with ``==``: the heat-sphere and heat-ball identities (lhs, rhs,
residual) and their integrals for the fields of the heat-balls benchmark on
E2, E3 and H3, Jhat and Ihat on E2, E3 and the shrinking-S3 reduced kernel,
a forward J sweep and the truncation caps.
"""

import pytest

from mvlab import mv_parabolic as mvp
from mvlab.fields import make_field
from mvlab.geometry import FlowGeometry
from mvlab.kernels import HeatKernel, SubHeatKernel
from mvlab.reduced import ReducedDistanceField
from mvlab.regions import ball_integrate, heatball_profile

GEOMS = {"e2": lambda: FlowGeometry.euclidean(2), "e3": lambda: FlowGeometry.euclidean(3),
         "h3": lambda: FlowGeometry.hyperbolic(3)}
KERNELS = {**{k: (lambda g=g: HeatKernel(g())) for k, g in GEOMS.items()},
           "s3": lambda: SubHeatKernel(ReducedDistanceField(FlowGeometry.shrinking_sphere(3)))}
PARAMS = {"superharmonic": {"C": 10.0}}
FORWARD_GRID = [0.4, 0.55, 0.7, 0.85, 1.0, 1.15, 1.3, 1.45, 1.6]
CAP_SLICES = (1e-2, 1e-3, 1e-4)

IDENTITIES = {
    ("mv_heat_sphere", "e2", "caloric-quadratic", 0.5):
        (0.0, -1.904676011787578e-17, 1.904676011787578e-17),
    ("mv_heat_ball", "e2", "caloric-quadratic", 0.5):
        (0.0, 3.2379492200388823e-17, 3.2379492200388823e-17),
    ("mv_heat_sphere", "e2", "caloric-quadratic", 1.2):
        (0.0, -1.0864934467240444e-16, 1.0864934467240444e-16),
    ("mv_heat_ball", "e2", "caloric-quadratic", 1.2):
        (0.0, 2.990433351840397e-18, 2.990433351840397e-18),
    ("mv_heat_sphere", "e2", "constant-1", 0.5): (1.0, 0.9999999999999999, 1.1102230246251565e-16),
    ("mv_heat_ball", "e2", "constant-1", 0.5): (1.0, 1.0000000000000002, 2.220446049250313e-16),
    ("mv_heat_sphere", "e2", "constant-1", 1.2): (1.0, 0.9999999999999999, 1.1102230246251565e-16),
    ("mv_heat_ball", "e2", "constant-1", 1.2): (1.0, 1.0, 0.0),
    ("mv_heat_sphere", "e2", "superharmonic", 0.5):
        (10.0, 9.999999999999998, 1.7763568394002505e-15),
    ("mv_heat_ball", "e2", "superharmonic", 0.5):
        (10.0, 10.000000000000004, 3.552713678800501e-15),
    ("mv_heat_sphere", "e2", "superharmonic", 1.2):
        (10.0, 9.999999999999998, 1.7763568394002505e-15),
    ("mv_heat_ball", "e2", "superharmonic", 1.2):
        (10.0, 10.000000000000002, 1.7763568394002505e-15),
    ("mv_heat_sphere", "e3", "superharmonic", 0.5): (10.0, 10.0, 0.0),
    ("mv_heat_ball", "e3", "superharmonic", 0.5): (10.0, 10.0, 0.0),
    ("mv_heat_sphere", "e3", "superharmonic", 1.2): (10.0, 10.0, 0.0),
    ("mv_heat_ball", "e3", "superharmonic", 1.2):
        (10.0, 9.999999999999998, 1.7763568394002505e-15),
    ("mv_heat_sphere", "h3", "constant-1", 0.5): (1.0, 0.9999999999999998, 2.220446049250313e-16),
    ("mv_heat_ball", "h3", "constant-1", 0.5): (1.0, 0.9999999999999999, 1.1102230246251565e-16),
    ("mv_heat_sphere", "h3", "constant-1", 1.2): (1.0, 1.0000000000000038, 3.774758283725532e-15),
    ("mv_heat_ball", "h3", "constant-1", 1.2): (1.0, 1.000000000000002, 1.9984014443252818e-15),
    ("mv_heat_sphere", "h3", "exp-radial", 0.5): (1.0, 0.999999999962324, 3.7675973452167e-11),
    ("mv_heat_ball", "h3", "exp-radial", 0.5): (1.0, 0.9999999999623237, 3.767630651907439e-11),
    ("mv_heat_sphere", "h3", "exp-radial", 1.2): (1.0, 0.9999999999121647, 8.783529459321926e-11),
    ("mv_heat_ball", "h3", "exp-radial", 1.2): (1.0, 0.9999999999121649, 8.783507254861433e-11),
}
TERMS = {
    ("j_term", "e2", "caloric-quadratic", 0.5): (-1.904676011787578e-17, 1.3066209343408506e-14),
    ("heat_op_term", "e2", "caloric-quadratic", 0.5): (0.0, 0.0),
    ("ball", "e2", "caloric-quadratic", 0.5): (8.094873050097206e-18, 1.3170934854986285e-11),
    ("j_term", "e2", "caloric-quadratic", 1.2): (-1.0864934467240444e-16, 4.3350546713589754e-13),
    ("heat_op_term", "e2", "caloric-quadratic", 1.2): (0.0, 0.0),
    ("ball", "e2", "caloric-quadratic", 1.2): (4.306224026650171e-18, 1.8902929389141314e-15),
    ("j_term", "e2", "constant-1", 0.5): (0.9999999999999999, 1.8190330755576e-15),
    ("heat_op_term", "e2", "constant-1", 0.5): (0.0, 0.0),
    ("ball", "e2", "constant-1", 0.5): (0.25000000000000006, 2.2538031169157503e-12),
    ("j_term", "e2", "constant-1", 1.2): (0.9999999999999999, 1.8190330942870186e-15),
    ("heat_op_term", "e2", "constant-1", 1.2): (0.0, 0.0),
    ("ball", "e2", "constant-1", 1.2): (1.44, 1.2987874785055932e-11),
    ("j_term", "e2", "superharmonic", 0.5): (9.980105632113512, 1.0836466968806264e-13),
    ("heat_op_term", "e2", "superharmonic", 0.5): (0.019894367886486915, 4.8533363358771915e-12),
    ("ball", "e2", "superharmonic", 0.5): (2.500000000000001, 9.596099790687143e-08),
    ("j_term", "e2", "superharmonic", 1.2): (9.885408440973833, 1.361422235825423e-14),
    ("heat_op_term", "e2", "superharmonic", 1.2): (0.11459155902616461, 2.7966902736308983e-11),
    ("ball", "e2", "superharmonic", 1.2): (14.400000000000002, 3.820499636809951e-07),
    ("j_term", "e3", "superharmonic", 0.5): (9.966714160020679, 2.7647076024131978e-11),
    ("heat_op_term", "e3", "superharmonic", 0.5): (0.03328583997932099, 2.7183278150978356e-12),
    ("ball", "e3", "superharmonic", 0.5): (1.25, 9.416799855663697e-12),
    ("j_term", "e3", "superharmonic", 1.2): (9.808273561719112, 2.32614814297693e-12),
    ("heat_op_term", "e3", "superharmonic", 1.2): (0.19172643828088887, 1.592659167478734e-11),
    ("ball", "e3", "superharmonic", 1.2): (17.279999999999994, 1.7178544524039819e-09),
    ("j_term", "h3", "constant-1", 0.5): (0.9999999999999998, 7.820838430159382e-13),
    ("heat_op_term", "h3", "constant-1", 0.5): (0.0, 0.0),
    ("ball", "h3", "constant-1", 0.5): (0.12499999999999999, 2.4067470689764148e-14),
    ("j_term", "h3", "constant-1", 1.2): (1.0000000000000038, 6.618252080302719e-12),
    ("heat_op_term", "h3", "constant-1", 1.2): (0.0, 0.0),
    ("ball", "h3", "constant-1", 1.2): (1.728000000000003, 1.594950279003224e-11),
    ("j_term", "h3", "exp-radial", 0.5): (0.8371605817690844, 4.295600147942183e-14),
    ("heat_op_term", "h3", "exp-radial", 0.5): (0.16283941819323963, 8.789537219500435e-05),
    ("ball", "h3", "exp-radial", 0.5): (0.12499999999529046, 1.0986923405344941e-05),
    ("j_term", "h3", "exp-radial", 1.2): (0.6588624106102274, 5.3236121821393213e-14),
    ("heat_op_term", "h3", "exp-radial", 1.2): (0.3411375893019372, 0.00019960291421710434),
    ("ball", "h3", "exp-radial", 1.2): (1.7279999998482207, 0.00034491384399363797),
}
QUANTITIES = {
    ("jhat", "e2", 0.5): (0.9999999999999772, 1.0032487049777277e-13),
    ("ihat0", "e2", 0.5): (1.0, 4.47855705744537e-13),
    ("ihat_half", "e2", 0.5): (1.0, 7.463519629847539e-13),
    ("jhat", "e2", 1.2): (0.9999999999999772, 1.0025705083253369e-13),
    ("ihat0", "e2", 1.2): (1.0, 4.4997240336841776e-13),
    ("ihat_half", "e2", 1.2): (1.0, 7.493136601147222e-13),
    ("jhat", "e3", 0.5): (0.9999999999999999, 3.1343286972273726e-14),
    ("ihat0", "e3", 0.5): (1.0, 7.211864232202086e-14),
    ("ihat_half", "e3", 0.5): (1.0, 8.70194397097331e-14),
    ("jhat", "e3", 1.2): (1.0, 3.134328654368239e-14),
    ("ihat0", "e3", 1.2): (1.0, 6.573576802051773e-13),
    ("ihat_half", "e3", 1.2): (1.0, 7.663147515383968e-13),
    ("jhat", "s3", 0.5): (0.9999836686883357, 2.7717560106366765e-14),
    ("ihat0", "s3", 0.5): (0.9999928668669, 3.4916713411589764e-14),
    ("ihat_half", "s3", 0.5): (0.9999919148648292, 4.4268457844543394e-14),
    ("jhat", "s3", 1.2): (0.9996094604444576, 4.0118224348431477e-13),
    ("ihat0", "s3", 1.2): (0.9998183801450294, 2.4089536668136102e-12),
    ("ihat_half", "s3", 1.2): (0.9997944882987173, 2.7572165643359777e-12),
}
FORWARD_VALUES = [9.987267604552649, 9.97592781485735, 9.961007038942485, 9.942505276808053,
                  9.92042252845405, 9.894758793880484, 9.865514073087347, 9.832688366074645,
                  9.796281672842376]
FORWARD_ERRORS = [1.315327422753502e-13, 9.588915645428737e-14, 5.758456443214807e-14,
                  2.3651128955552182e-14, 2.808727322537102e-15, 5.464961205382971e-15,
                  4.371514717519428e-14, 1.313423202079832e-13, 2.8381723636113847e-13]
CAPS = {
    0.5: [0.15159326120365502, 0.7994187755217179, 0.9683678224923069],
    1.2: [0.6999090437523819, 0.949897058785195, 0.992980321319515],
}


def field(model, name):
    return make_field(name, GEOMS[model](), **PARAMS.get(name, {}))


@pytest.mark.parametrize("model, name", sorted({k[1:3] for k in IDENTITIES}))
def test_identity_bits(model, name):
    for (fn, m, n, r), want in IDENTITIES.items():
        if (m, n) == (model, name):
            assert getattr(mvp, fn)(KERNELS[model](), field(model, name), r) == want, (fn, r)


@pytest.mark.parametrize("model, name", sorted({k[1:3] for k in TERMS}))
def test_identity_integral_bits(model, name):
    # the (value, error) of the integrals the identities sum: the surface
    # J term, the heat-operator correction ball and the I_v ball
    for r in (0.5, 1.2):
        v = field(model, name)
        region = heatball_profile(KERNELS[model](), r)
        density = mvp._i_density(v, region, "caloric" not in v.tags)
        got = {"j_term": mvp._j_term(v, region),
               "heat_op_term": mvp._heat_op_ball_term(v, region),
               "ball": ball_integrate(region, density, **mvp._EPS)}
        for term, pair in got.items():
            assert tuple(map(float, pair)) == TERMS[term, model, name, r], (term, r)


@pytest.mark.parametrize("model", ["e2", "e3", "s3"])
def test_jhat_ihat_bits(model):
    for r in (0.5, 1.2):
        kern = KERNELS[model]()
        assert mvp.jhat_quantity(kern, r) == QUANTITIES["jhat", model, r]
        assert mvp.ihat_quantity(kern, 0.0, r) == QUANTITIES["ihat0", model, r]
        assert mvp.ihat_quantity(kern, r / 2, r) == QUANTITIES["ihat_half", model, r]


def test_forward_sweep_and_cap_bits():
    rep = mvp.forward_j_sweep(KERNELS["e2"](), field("e2", "superharmonic"), FORWARD_GRID)
    assert (rep.values, rep.errors) == (FORWARD_VALUES, FORWARD_ERRORS)
    for r, want in CAPS.items():
        assert mvp.truncation_convergence(KERNELS["e2"](), field("e2", "constant-1"), r,
                                          CAP_SLICES) == want
