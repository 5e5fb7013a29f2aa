"""integrate_de against scipy.integrate.tanhsinh, bit for bit; qk21 against
scipy.integrate.quad on one interval; integrate_1d against scipy.integrate.quad.

Both tanh-sinh routines take vectorised integrands.  The scalar integrands
below go through `vectorised`, which evaluates them node by node."""

import math
import warnings

import numpy as np
import pytest
import scipy
from scipy import integrate
from scipy.integrate import tanhsinh

from mvlab import mv_parabolic as mvp
from mvlab import regions
from mvlab.geometry import FlowGeometry
from mvlab.fields import make_field
from mvlab.kernels import HeatKernel
from mvlab.quad import _QK21_W, QK21_NODES, integrate_1d, integrate_de, qk21
from mvlab.regions import TIME_CLIP_HI, TIME_CLIP_LO, heatball_profile

# integrate_de reproduces this release's tanhsinh (minlevel 2, maxlevel 10)
SCIPY_ORACLE = "1.17.1"


def vectorised(f):
    """A scalar integrand under the array convention: one call per level."""
    return lambda xs: np.array([f(x) for x in xs.tolist()])


def scipy_de(f, a, b, atol, rtol):
    """The oracle: scipy's tanhsinh over the array integrand f, its node
    arrays flattened to the 1-d arrays integrate_de passes."""
    def flat(xs):
        return f(np.ravel(xs)).reshape(np.shape(xs))

    res = tanhsinh(flat, a, b, atol=atol, rtol=rtol)
    return float(res.integral), float(res.error), int(res.maxlevel)


def clipped(x):
    # the TIME_CLIP_* guard of the region integrands, on (0, 1)
    if x <= TIME_CLIP_LO or x >= 1.0 - TIME_CLIP_HI:
        return 0.0
    return 1.0 / math.sqrt(x * (1.0 - x))


INTEGRANDS = {
    "smooth": (lambda x: math.exp(-x) * math.sin(3.0 * x), 0.0, 2.0),
    "inverse_sqrt": (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0),
    "log": (lambda x: math.log(x), 0.0, 1.0),
    "cos30": (lambda x: math.cos(30.0 * x), 0.0, 1.0),
    "clipped_slivers": (clipped, 0.0, 1.0),
    # non-finite values take the value at the outermost finite node
    "nan_tail": (lambda x: math.nan if x > 0.9 else x, 0.0, 1.0),
    # scipy also evaluates the nodes that round onto an endpoint, at weight 0
    "shifted_inverse_sqrt": (
        lambda x: math.inf if x <= 1.5 else 1.0 / math.sqrt(x - 1.5), 1.5, 3.7),
}
TOLERANCES = [(mvp._EPS["epsabs"], mvp._EPS["epsrel"]), (1e-7, 1e-7),
              (1e-11, 1e-9), (0.0, 1e-14)]


def test_oracle_version():
    assert scipy.__version__ == SCIPY_ORACLE, (
        "integrate_de mirrors scipy 1.17.1's tanhsinh; re-check it against "
        "this release before updating the pin")


@pytest.mark.parametrize("atol,rtol", TOLERANCES)
@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_matches_scipy_bit_for_bit(name, atol, rtol):
    f, a, b = INTEGRANDS[name]
    val, err, _ = scipy_de(vectorised(f), a, b, atol, rtol)
    assert integrate_de(vectorised(f), a, b, atol=atol, rtol=rtol) == (val, err)


@pytest.mark.parametrize("atol,rtol", TOLERANCES)
def test_numpy_integrands_match_scipy(atol, rtol):
    # integrands written in numpy, evaluated one level at a time by both
    for f, a, b in [(lambda x: np.exp(-x) * np.sin(3.0 * x), 0.0, 2.0),
                    (lambda x: np.log(x) / np.sqrt(x * (1.0 - x)), 0.0, 1.0),
                    (lambda x: np.sinh(x) / x, 1e-3, 4.0)]:
        assert integrate_de(f, a, b, atol=atol, rtol=rtol) == \
            scipy_de(f, a, b, atol, rtol)[:2]


def test_unconverged_at_maxlevel():
    def f(x):
        return math.sin(1.0 / x)

    val, err, level = scipy_de(vectorised(f), 0.0, 1.0, 1e-10, 1e-9)
    assert level == 10 and err > 1e-6
    assert integrate_de(vectorised(f), 0.0, 1.0, atol=1e-10, rtol=1e-9) == (val, err)


def test_random_integrands():
    rng = np.random.default_rng(7)
    for _ in range(40):
        c = rng.uniform(-3.0, 3.0, 4)
        a = rng.uniform(-2.0, 1.0)
        b = a + rng.uniform(1e-3, 5.0)
        p = rng.uniform(0.1, 2.0)

        def f(x, c=c, a=a, p=p):
            return (c[0] * math.exp(c[1] * x) + c[2] * math.cos(5.0 * c[3] * x)
                    + abs(x - a) ** p)

        atol, rtol = 10.0 ** rng.uniform(-14, -6), 10.0 ** rng.uniform(-14, -6)
        assert integrate_de(vectorised(f), a, b, atol=atol, rtol=rtol) == \
            scipy_de(vectorised(f), a, b, atol, rtol)[:2]


@pytest.mark.parametrize("eps", [mvp._EPS, {"epsabs": 1e-7, "epsrel": 1e-7}],
                         ids=["exact", "loose"])
def test_heat_sphere_integrand(eps, monkeypatch):
    # the integrand sphere_integrate hands integrate_de on an H3 heat sphere
    kern = HeatKernel(FlowGeometry.hyperbolic(3))
    region = heatball_profile(kern, 1.0)
    seen = []

    def record(f, a, b, atol, rtol):
        seen.append((f, a, b, atol, rtol, integrate_de(f, a, b, atol=atol, rtol=rtol)))
        return seen[-1][-1]

    monkeypatch.setattr(regions, "integrate_de", record)
    got = regions.sphere_integrate(
        region, lambda s: s.grad ** 2 / np.hypot(s.grad, s.dtau), **eps)
    (f, a, b, atol, rtol, de), = seen
    assert (atol, rtol) == (eps["epsabs"], eps["epsrel"])
    assert de == scipy_de(f, a, b, atol, rtol)[:2]
    # the engine adds the bound on its clipped end slivers to the error
    assert got[0] == de[0] and got[1] > de[1]


@pytest.mark.parametrize("r", [0.5, 1.0])
@pytest.mark.parametrize("case", ["watson_e2", "correction_h3"])
def test_heat_ball_slices_integrand(case, r, monkeypatch):
    # the slice density ball_integrate hands integrate_de: the E2 Watson ball
    # (the I_v density of a caloric field) and the H3 heat-sphere correction
    # ball ((K - r^-n) (d/dt - Delta) v of exp-radial)
    if case == "watson_e2":
        e2 = FlowGeometry.euclidean(2)
        kern, field = HeatKernel(e2), make_field("caloric-quadratic", e2)
        identity = mvp.mv_heat_ball
    else:
        h3 = FlowGeometry.hyperbolic(3)
        kern, field = HeatKernel(h3), make_field("exp-radial", h3)
        identity = mvp.mv_heat_sphere
    seen, balls = [], []
    ball_integrate = regions.ball_integrate

    def record(f, a, b, atol, rtol):
        seen.append((f, a, b, atol, rtol, integrate_de(f, a, b, atol=atol, rtol=rtol)))
        return seen[-1][-1]

    def ball(*args, **kwargs):
        balls.append(len(seen))
        return ball_integrate(*args, **kwargs)

    monkeypatch.setattr(regions, "integrate_de", record)
    monkeypatch.setattr(mvp, "ball_integrate", ball)
    identity(kern, field, r)
    assert len(balls) == 1
    f, a, b, atol, rtol, de = seen[balls[0]]
    assert de == scipy_de(f, a, b, atol, rtol)[:2]


QK21_ROWS = {  # integrand on [a, b], as the engines evaluate it on a row
    "zero": (lambda x: 0.0 * x, -1.0, 1.0),
    "even": (lambda x: 1.0 + x ** 10, -1.0, 1.0),  # in a batch, Kronrod = Gauss exactly
    "sign_change": (lambda x: np.sin(3.0 * x) - 0.2, 0.2, 1.7),
    "smooth": (lambda x: np.exp(-x), 0.0, 2.5),
}


def test_qk21_rows():
    fx = np.array([f((a + b) / 2 + (b - a) / 2 * QK21_NODES) for f, a, b in QK21_ROWS.values()])
    half = np.array([(b - a) / 2 for _, a, b in QK21_ROWS.values()])
    rk, rg = (fx @ _QK21_W).T
    assert rk[0] == rg[0] == 0.0 and rk[1] == rg[1]  # QUADPACK's zero-difference branch
    val, err = qk21(fx, half)
    # the bits of both branches since the estimate was written: the batch
    # with zero rows, and the last two rows alone
    assert val.tolist() == [0.0, 2.181818181818182, -0.15088070926776737, 0.917915001376101]
    assert err.tolist() == [0.0, 2.422304781000342e-14, 1.1584034657227857e-14,
                            1.0190903691765797e-14]
    assert [a.tolist() for a in qk21(fx[2:], half[2:])] == [
        [-0.15088070926776737, 0.917915001376101], [1.1584034657227857e-14, 1.01909036917658e-14]]
    # QUADPACK's own QK21 on one interval sums in another order
    for (f, a, b), v, e in zip(QK21_ROWS.values(), val, err):
        want, want_err = integrate.quad(lambda x: float(f(np.float64(x))), a, b,
                                        limit=1, full_output=1)[:2]
        assert abs(v - want) <= 2 * np.spacing(abs(want))
        assert e == pytest.approx(want_err, rel=1e-14, abs=0.0)


def test_integrate_1d_unconverged_is_silent():
    # sin(1/x) exhausts five subdivisions: the result is quad's, and its
    # IntegrationWarning is neither emitted nor filtered away
    def f(x):
        return math.sin(1.0 / x)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        expect = integrate.quad(f, 0.0, 1.0, epsabs=1e-11, epsrel=1e-9, limit=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = integrate_1d(f, 0.0, 1.0, limit=5)
    assert got == expect
    assert not any(issubclass(w.category, integrate.IntegrationWarning)
                   for w in caught)
